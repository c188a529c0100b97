package dmx

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/pagefile"
	"dmx/internal/types"
)

func TestOpenExecQuery(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = db.Exec(
		"CREATE TABLE emp (eno INT NOT NULL, name STRING, salary FLOAT) USING heap",
		"CREATE INDEX byeno ON emp (eno)",
		"INSERT INTO emp VALUES (1, 'ada', 100.0), (2, 'bob', 90.0)",
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT name FROM emp WHERE eno = 2")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "bob" {
		t.Fatalf("res = %+v, %v", res, err)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		LogPath:  filepath.Join(dir, "wal.log"),
		DiskPath: filepath.Join(dir, "data.db"),
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(
		"CREATE TABLE t (id INT NOT NULL, v STRING) USING heap",
		"INSERT INTO t VALUES (1, 'survives')",
	); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Recover = true
	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Exec("SELECT v FROM t")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "survives" {
		t.Fatalf("recovered res = %+v, %v", res, err)
	}
	// The recovered database accepts new work.
	if _, err := db2.Exec("INSERT INTO t VALUES (2, 'new')"); err != nil {
		t.Fatal(err)
	}
}

func TestDirectGenericInterface(t *testing.T) {
	db, _ := Open(Config{})
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING memory"); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	key, err := rel.Insert(tx, Record{Int(7), Str("x")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rel.Fetch(tx, key, nil, nil)
	if err != nil || got[0].AsInt() != 7 {
		t.Fatalf("fetch = %v, %v", got, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Relation("ghost"); err == nil {
		t.Fatal("missing relation accepted")
	}
}

func TestRegisterTriggerAndFunction(t *testing.T) {
	db, _ := Open(Config{})
	defer db.Close()
	db.RegisterFunction("double", func(args []Value) (Value, error) {
		return Int(args[0].AsInt() * 2), nil
	})
	fired := 0
	db.RegisterTrigger("count_it", func(env *Env, tx *Txn, ev TriggerEvent, rd *RelDesc, key Key, o, n Record) error {
		fired++
		return nil
	})
	if _, err := db.Exec(
		"CREATE TABLE t (id INT NOT NULL) USING memory",
		"CREATE ATTACHMENT trigger ON t WITH (call=count_it)",
		"INSERT INTO t VALUES (5)",
	); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("trigger fired %d times", fired)
	}
	res, err := db.Exec("SELECT id FROM t WHERE id = double(2) + 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("function query = %+v, %v", res, err)
	}
}

func TestCheckPredicateRegistration(t *testing.T) {
	db, _ := Open(Config{})
	defer db.Close()
	db.RegisterCheckPredicate("positive", expr.Gt(expr.Field(0), expr.Const(types.Int(0))))
	if _, err := db.Exec(
		"CREATE TABLE t (id INT NOT NULL) USING memory",
		"CREATE ATTACHMENT check ON t WITH (name=pos, predicate=positive)",
		"INSERT INTO t VALUES (1)",
	); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (-1)"); err == nil {
		t.Fatal("constraint did not fire through facade")
	}
}

func TestForeignServerThroughFacade(t *testing.T) {
	db, _ := Open(Config{})
	defer db.Close()
	srv := NewForeignServer(0)
	db.AttachShardServer("fed", srv)
	if _, err := db.Exec(
		"CREATE TABLE far (id INT NOT NULL, v STRING) USING remote WITH (server=fed)",
		"INSERT INTO far VALUES (1, 'remote row')",
	); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT v FROM far WHERE id = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "remote row" {
		t.Fatalf("remote res = %+v, %v", res, err)
	}
	if srv.Messages.Load() == 0 {
		t.Fatal("no messages reached the foreign server")
	}
	// A remote relation is the one-shard partitioned store: the operator
	// sees it in sys.stat_shards like any shard.
	stat, err := db.Exec("SELECT name, shard, server, table_name, records, in_doubt, messages FROM sys.stat_shards")
	if err != nil || len(stat.Rows) != 1 {
		t.Fatalf("stat_shards = %+v, %v", stat, err)
	}
	r := stat.Rows[0]
	if r[0].S != "far" || r[1].AsInt() != 0 || r[2].S != "fed" || r[3].S != "far" ||
		r[4].AsInt() != 1 || r[5].AsInt() != 0 || r[6].AsInt() <= 0 {
		t.Fatalf("stat_shards row = %v", r)
	}
}

// TestForeignTableAcrossReopen reopens a database holding an indexed remote
// relation, after a clean Close and after a crash, with its foreign server
// named in Config.Servers. Recovery reaches the server and rebuilds the
// index from the foreign table, although a checkpoint truncated the index
// records of the first two rows: every id answers one row through it.
func TestForeignTableAcrossReopen(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(map[bool]string{false: "clean-close", true: "crash"}[crash], func(t *testing.T) {
			dir := t.TempDir()
			srv := NewForeignServer(0) // the foreign database outlives the local one
			cfg := Config{
				LogPath:  filepath.Join(dir, "wal.log"),
				DiskPath: filepath.Join(dir, "data.db"),
				Servers:  map[string]*ForeignServer{"fed": srv},
			}
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(
				"CREATE TABLE far (id INT NOT NULL, v STRING) USING remote WITH (server=fed)",
				"CREATE INDEX byid ON far (id)",
				"INSERT INTO far VALUES (1, 'a'), (2, 'b')",
			); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec("INSERT INTO far VALUES (3, 'c')"); err != nil {
				t.Fatal(err)
			}
			if !crash {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			} // else the handle is abandoned: a process death

			cfg.Recover = true
			db2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			for id, want := range []string{"a", "b", "c"} {
				res, err := db2.Exec(fmt.Sprintf("SELECT v FROM far WHERE id = %d", id+1))
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != want {
					t.Fatalf("id %d after reopen = %+v, %v; want one row %q", id+1, res, err, want)
				}
				if !strings.Contains(res.Explain, "via btree") {
					t.Fatalf("id %d was not read through the index: %s", id+1, res.Explain)
				}
			}
		})
	}
}

// TestFailedRecoveryKeepsTheLog opens a crashed database without the
// server its remote relation names. Open fails, and must not checkpoint
// on its way out: a checkpoint would keep only the half-recovered state of
// the local relation and truncate the log that holds the rest.
func TestFailedRecoveryKeepsTheLog(t *testing.T) {
	dir := t.TempDir()
	srv := NewForeignServer(0)
	cfg := Config{
		LogPath:  filepath.Join(dir, "wal.log"),
		DiskPath: filepath.Join(dir, "data.db"),
		Servers:  map[string]*ForeignServer{"fed": srv},
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(
		"CREATE TABLE loc (id INT NOT NULL) USING heap",
		"CREATE TABLE far (id INT NOT NULL) USING remote WITH (server=fed)",
		"INSERT INTO loc VALUES (1)",
		"INSERT INTO far VALUES (1)",
		"INSERT INTO loc VALUES (2)",
	); err != nil {
		t.Fatal(err)
	} // the handle is abandoned: a process death

	cfg.Recover, cfg.Servers = true, nil
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), `no foreign server "fed"`) {
		t.Fatalf("Open without the server: %v", err)
	}
	cfg.Servers = map[string]*ForeignServer{"fed": srv}
	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if res, err := db2.Exec("SELECT id FROM loc"); err != nil || len(res.Rows) != 2 {
		t.Fatalf("loc after the failed open = %+v, %v; want both rows", res, err)
	}
}

func TestPlanAPI(t *testing.T) {
	db, _ := Open(Config{})
	defer db.Close()
	if _, err := db.Exec(
		"CREATE TABLE t (id INT NOT NULL, v INT) USING memory",
		"INSERT INTO t VALUES (1, 10), (2, 20)",
	); err != nil {
		t.Fatal(err)
	}
	b, err := db.Plan(Query{Table: "t", Fields: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	rows, err := b.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	rows.Close()
	tx.Commit()
	if n != 2 {
		t.Fatalf("plan rows = %d", n)
	}
}

func TestExecErrorWrapsStatement(t *testing.T) {
	db, _ := Open(Config{})
	defer db.Close()
	_, err := db.Exec("SELEKT nothing")
	if err == nil || !errors.Is(err, err) {
		t.Fatal("bad statement accepted")
	}
}

func TestCloseFlushesDirtyFramesToDisk(t *testing.T) {
	// Regression: Close used to close the page file without flushing the
	// buffer pool, so heap pages dirtied in memory never reached disk —
	// the file held only the zero pages written at allocation time.
	dir := t.TempDir()
	diskPath := filepath.Join(dir, "data.db")
	db, err := Open(Config{DiskPath: diskPath, PoolFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(
		"CREATE TABLE t (id INT NOT NULL, v STRING) USING heap",
		"INSERT INTO t VALUES (1, 'persisted-by-close')",
	); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := pagefile.OpenFileDisk(diskPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumPages() == 0 {
		t.Fatal("no pages allocated")
	}
	buf := make([]byte, pagefile.PageSize)
	nonZero := false
	for id := pagefile.PageID(0); id < d.NumPages() && !nonZero; id++ {
		if err := d.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				nonZero = true
				break
			}
		}
	}
	if !nonZero {
		t.Fatal("all pages are zero after Close: dirty frames were dropped")
	}
}

// A relation handle opened before CREATE INDEX writes through the new
// index: the probe that the plan sends to the btree finds the record.
// After a rolled-back CREATE INDEX the handle writes as before the DDL,
// a DROP that is not yet committed leaves its snapshot reads alone, and
// a handle on a dropped relation fails instead of writing.
func TestHandleFollowsAttachmentDDL(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (a INT NOT NULL, b INT) USING heap"); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("t")
	if err != nil {
		t.Fatal(err)
	}
	insert := func(a, b int64) error {
		tx := db.Begin()
		if _, err := rel.Insert(tx, Record{Int(a), Int(b)}); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	selectB := func(b int64, via string) int {
		t.Helper()
		res, err := db.Exec(fmt.Sprintf("SELECT a FROM t WHERE b = %d", b))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Explain, via) {
			t.Fatalf("SELECT ran %s, want a plan through %s", res.Explain, via)
		}
		return len(res.Rows)
	}

	if _, err := db.Exec("BEGIN", "CREATE INDEX t_b ON t (b)", "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if err := insert(0, 42); err != nil {
		t.Fatal(err)
	}
	if n := selectB(42, "heap"); n != 1 {
		t.Fatalf("after a rolled-back CREATE INDEX: %d rows, want 1", n)
	}

	if _, err := db.Exec("CREATE INDEX t_b ON t (b)"); err != nil {
		t.Fatal(err)
	}
	if err := insert(1, 42); err != nil {
		t.Fatal(err)
	}
	if n := selectB(42, "btree"); n != 2 {
		t.Fatalf("a record inserted through a handle opened before CREATE INDEX: %d rows through the index, want 2", n)
	}

	// A snapshot read through the handle runs on while a DROP is still
	// uncommitted, and the handle writes again once the DROP rolls back.
	s := db.NewSession()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	ro := db.BeginReadOnly()
	scan, err := rel.OpenScan(ro, core.ScanOptions{})
	if err != nil {
		t.Fatalf("snapshot scan during an uncommitted DROP: %v", err)
	}
	n := 0
	for {
		_, _, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	scan.Close()
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("snapshot scan during an uncommitted DROP: %d rows, want 2", n)
	}
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if err := insert(2, 42); err != nil {
		t.Fatalf("insert after a rolled-back DROP: %v", err)
	}
	if n := selectB(42, "btree"); n != 3 {
		t.Fatalf("after a rolled-back DROP: %d rows, want 3", n)
	}

	if _, err := db.Exec("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if err := insert(3, 42); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("insert through a handle on a dropped relation: %v, want ErrNotFound", err)
	}
}
