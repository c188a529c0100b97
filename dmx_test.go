package dmx

import (
	"errors"
	"path/filepath"
	"testing"

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
	db.AttachForeignServer("fed", srv)
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

// TestForeignTableAcrossReopen reopens a database holding a remote relation
// with Recover set: recovery runs inside Open, before the foreign server
// can be attached, and must leave the relation for the attach that follows.
func TestForeignTableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{LogPath: filepath.Join(dir, "wal.log"), DiskPath: filepath.Join(dir, "data.db")}
	srv := NewForeignServer(0) // the foreign database outlives the local one
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.AttachForeignServer("fed", srv)
	if _, err := db.Exec(
		"CREATE TABLE far (id INT NOT NULL, v STRING) USING remote WITH (server=fed)",
		"INSERT INTO far VALUES (1, 'remote row')",
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
	if _, err := db2.Exec("SELECT v FROM far"); err == nil {
		t.Fatal("remote relation answered with no server attached")
	}
	// The unattached relation is left out of the view, not failing it.
	if stat, err := db2.Exec("SELECT name FROM sys.stat_shards"); err != nil || len(stat.Rows) != 0 {
		t.Fatalf("stat_shards with no server attached = %+v, %v", stat, err)
	}
	db2.AttachForeignServer("fed", srv)
	if _, err := db2.Exec("INSERT INTO far VALUES (2, 'after reopen')"); err != nil {
		t.Fatal(err)
	}
	res, err := db2.Exec("SELECT v FROM far")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("reopened remote res = %+v, %v", res, err)
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
