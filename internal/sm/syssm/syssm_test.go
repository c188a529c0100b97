package syssm_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dmx/internal/core"
	"dmx/internal/ddl"
	"dmx/internal/remote"
	"dmx/internal/sm/partsm"
	"dmx/internal/types"

	_ "dmx/internal/sm/appendsm"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/syssm"
)

var update = flag.Bool("update", false, "rewrite testdata/ golden files from this tree's output")

func newEnv(t *testing.T) *core.Env {
	t.Helper()
	return core.NewEnv(core.Config{})
}

func mkTable(t *testing.T, env *core.Env, name, sm string) *core.Relation {
	t.Helper()
	schema := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "v", Kind: types.KindString},
	)
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, name, schema, sm, nil); err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit create: %v", err)
	}
	rel, err := env.OpenRelationByName(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	return rel
}

// scanView reads every row of a system relation through the ordinary
// relation scan path, in its own transaction.
func scanView(t *testing.T, env *core.Env, view string) []types.Record {
	t.Helper()
	rel, err := env.OpenRelationByName(view)
	if err != nil {
		t.Fatalf("open %s: %v", view, err)
	}
	tx := env.Begin()
	defer tx.Commit()
	sc, err := rel.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatalf("scan %s: %v", view, err)
	}
	defer sc.Close()
	var rows []types.Record
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatalf("next %s: %v", view, err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, rec)
	}
}

func TestSystemRelationsInstalled(t *testing.T) {
	env := newEnv(t)
	for _, name := range []string{
		"sys.stat_activity", "sys.stat_history", "sys.stat_relations",
		"sys.stat_locks", "sys.stat_lsm", "sys.stat_buffer", "sys.stat_traces",
		"sys.stat_shards", "sys.stat_metrics",
	} {
		rd, ok := env.Cat.ByName(name)
		if !ok {
			t.Fatalf("%s not catalogued", name)
		}
		if !core.IsSystemRelID(rd.RelID) {
			t.Fatalf("%s has non-system RelID %d", name, rd.RelID)
		}
		if rd.SM != core.SMSys {
			t.Fatalf("%s has SM %d, want %d", name, rd.SM, core.SMSys)
		}
	}
}

func TestSystemRelationsProtected(t *testing.T) {
	env := newEnv(t)
	tx := env.Begin()
	defer tx.Abort()

	if err := env.DropRelation(tx, "sys.stat_activity"); err == nil {
		t.Fatal("DROP of a system relation succeeded")
	}
	if _, err := env.CreateAttachment(tx, "sys.stat_activity", "btree", core.AttrList{"on": "id"}); err == nil {
		t.Fatal("CREATE ATTACHMENT on a system relation succeeded")
	}
	schema := types.MustSchema(types.Column{Name: "id", Kind: types.KindInt})
	if _, err := env.CreateRelation(tx, "sys.mine", schema, "heap", nil); err == nil {
		t.Fatal("CREATE in the sys. namespace succeeded")
	}
	if _, err := env.CreateRelation(tx, "t", schema, "sys", nil); err == nil {
		t.Fatal("CREATE USING sys succeeded")
	}
}

func TestSystemRelationsReadOnly(t *testing.T) {
	env := newEnv(t)
	rel, err := env.OpenRelationByName("sys.stat_activity")
	if err != nil {
		t.Fatal(err)
	}
	tx := env.Begin()
	defer tx.Abort()
	if _, err := rel.Insert(tx, make(types.Record, 14)); err == nil {
		t.Fatal("insert into a system relation succeeded")
	}
}

func colIndex(t *testing.T, env *core.Env, view, col string) int {
	t.Helper()
	rd, ok := env.Cat.ByName(view)
	if !ok {
		t.Fatalf("%s not catalogued", view)
	}
	i := rd.Schema.ColIndex(col)
	if i < 0 {
		t.Fatalf("%s has no column %q", view, col)
	}
	return i
}

// TestLiveCountersVisibleAcrossTransactions is the tentpole acceptance
// check: one transaction's in-flight resource ledger is visible from a
// second transaction via sys.stat_activity, its lock wait shows in
// sys.stat_locks with the blocker edge, and after commit its totals land
// in sys.stat_history.
func TestLiveCountersVisibleAcrossTransactions(t *testing.T) {
	env := newEnv(t)
	rel := mkTable(t, env, "t", "heap")

	idCol := colIndex(t, env, "sys.stat_activity", "id")
	rwCol := colIndex(t, env, "sys.stat_activity", "rows_written")
	lwCol := colIndex(t, env, "sys.stat_activity", "lock_waits")

	txA := env.Begin()
	var key types.Key
	for i := 0; i < 3; i++ {
		k, err := rel.Insert(txA, types.Record{types.Int(int64(i)), types.Str("v")})
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		key = k
	}

	// A second transaction sees A's live rows_written ledger mid-flight.
	findA := func() (types.Record, bool) {
		for _, rec := range scanView(t, env, "sys.stat_activity") {
			if rec[idCol].I == int64(txA.ID()) {
				return rec, true
			}
		}
		return nil, false
	}
	rec, ok := findA()
	if !ok {
		t.Fatalf("txn %d not in sys.stat_activity", txA.ID())
	}
	if rec[rwCol].I != 3 {
		t.Fatalf("live rows_written = %d, want 3", rec[rwCol].I)
	}

	// A conflicting writer blocks on A's X lock; its wait is charged and
	// the waits-for edge shows in sys.stat_locks.
	done := make(chan error, 1)
	go func() {
		txB := env.Begin()
		if _, err := rel.Update(txB, key, types.Record{types.Int(99), types.Str("w")}); err != nil {
			txB.Abort()
			done <- err
			return
		}
		done <- txB.Commit()
	}()

	stCol := colIndex(t, env, "sys.stat_locks", "state")
	blkCol := colIndex(t, env, "sys.stat_locks", "blockers")
	blockerSeen := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !blockerSeen {
		for _, lrec := range scanView(t, env, "sys.stat_locks") {
			if lrec[stCol].S == "waiting" &&
				strings.Contains(lrec[blkCol].S, fmt.Sprint(txA.ID())) {
				blockerSeen = true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !blockerSeen {
		t.Fatal("waiting lock with txA as blocker never appeared in sys.stat_locks")
	}
	if rec, ok := findA(); !ok || rec[lwCol].I != 0 {
		t.Fatalf("txA should not be waiting (rec=%v ok=%v)", rec, ok)
	}

	if err := txA.Commit(); err != nil {
		t.Fatalf("commit A: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked writer: %v", err)
	}

	// A's totals are in the finished-transaction ring.
	hIDCol := colIndex(t, env, "sys.stat_history", "id")
	hRWCol := colIndex(t, env, "sys.stat_history", "rows_written")
	hOutCol := colIndex(t, env, "sys.stat_history", "outcome")
	found := false
	for _, hrec := range scanView(t, env, "sys.stat_history") {
		if hrec[hIDCol].I == int64(txA.ID()) {
			found = true
			if hrec[hOutCol].S != "committed" {
				t.Fatalf("txA outcome = %q, want committed", hrec[hOutCol].S)
			}
			if hrec[hRWCol].I != 3 {
				t.Fatalf("history rows_written = %d, want 3", hrec[hRWCol].I)
			}
		}
	}
	if !found {
		t.Fatalf("txn %d not in sys.stat_history", txA.ID())
	}

	// The blocked writer's wait was charged.
	wFound := false
	hLWCol := colIndex(t, env, "sys.stat_history", "lock_waits")
	hLWNCol := colIndex(t, env, "sys.stat_history", "lock_wait_ns")
	for _, hrec := range scanView(t, env, "sys.stat_history") {
		if hrec[hIDCol].I != int64(txA.ID()) && hrec[hLWCol].I > 0 {
			wFound = true
			if hrec[hLWNCol].I <= 0 {
				t.Fatal("lock_waits > 0 but lock_wait_ns == 0")
			}
		}
	}
	if !wFound {
		t.Fatal("no finished transaction recorded a lock wait")
	}
}

func TestStatRelationsRollup(t *testing.T) {
	env := newEnv(t)
	rel := mkTable(t, env, "t", "heap")
	tx := env.Begin()
	for i := 0; i < 5; i++ {
		if _, err := rel.Insert(tx, types.Record{types.Int(int64(i)), types.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	nameCol := colIndex(t, env, "sys.stat_relations", "name")
	insCol := colIndex(t, env, "sys.stat_relations", "inserts")
	rwCol := colIndex(t, env, "sys.stat_relations", "rows_written")
	for _, rec := range scanView(t, env, "sys.stat_relations") {
		if rec[nameCol].S == "t" {
			if rec[insCol].I != 5 {
				t.Fatalf("inserts = %d, want 5", rec[insCol].I)
			}
			if rec[rwCol].I != 5 {
				t.Fatalf("rows_written = %d, want 5", rec[rwCol].I)
			}
			return
		}
	}
	t.Fatal("relation t not in sys.stat_relations")
}

func TestStatLSM(t *testing.T) {
	env := newEnv(t)
	schema := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "v", Kind: types.KindString},
	)
	tx := env.Begin()
	// A tiny memtable so a handful of inserts seals runs.
	if _, err := env.CreateRelation(tx, "events", schema, "append",
		core.AttrList{"memtable": "256", "compact": "sync"}); err != nil {
		t.Fatalf("create append: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rel, err := env.OpenRelationByName("events")
	if err != nil {
		t.Fatal(err)
	}
	tx = env.Begin()
	for i := 0; i < 64; i++ {
		if _, err := rel.Insert(tx, types.Record{types.Int(int64(i)), types.Str("payloadpayload")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	nameCol := colIndex(t, env, "sys.stat_lsm", "name")
	memCol := colIndex(t, env, "sys.stat_lsm", "memtable")
	entCol := colIndex(t, env, "sys.stat_lsm", "entries")
	var memRows, runRows, entries int64
	for _, rec := range scanView(t, env, "sys.stat_lsm") {
		if rec[nameCol].S != "events" {
			continue
		}
		if rec[memCol].AsBool() {
			memRows++
		} else {
			runRows++
		}
		entries += rec[entCol].I
	}
	if memRows != 1 {
		t.Fatalf("memtable rows = %d, want 1", memRows)
	}
	if runRows == 0 {
		t.Fatal("no sealed runs in sys.stat_lsm despite a 256-byte memtable")
	}
	if entries < 64 {
		t.Fatalf("total entries = %d, want >= 64", entries)
	}
}

func TestSQLOverSystemRelations(t *testing.T) {
	env := newEnv(t)
	sess := ddl.NewSession(env)
	if _, err := sess.Exec("CREATE TABLE t (id INT NOT NULL, v STRING)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b')"); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec("SELECT name, inserts FROM sys.stat_relations WHERE name = 't'")
	if err != nil {
		t.Fatalf("select over sys.stat_relations: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].I != 2 {
		t.Fatalf("unexpected result: %+v", res.Rows)
	}
	// Qualified column references resolve against the dotted table name.
	res, err = sess.Exec("SELECT * FROM sys.stat_history WHERE sys.stat_history.outcome = 'committed'")
	if err != nil {
		t.Fatalf("qualified filter: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no committed transactions in sys.stat_history")
	}
	// ORDER BY + LIMIT flow through the plan layer like any relation.
	if _, err := sess.Exec("SELECT id, rows_written FROM sys.stat_history ORDER BY id DESC LIMIT 3"); err != nil {
		t.Fatalf("order/limit: %v", err)
	}
	// System relations join like any other relation (the README's
	// stuck-transaction query; no waiters here, so zero rows, but the
	// whole parse/bind/plan/execute path must hold together).
	res, err = sess.Exec("SELECT sys.stat_locks.resource, sys.stat_locks.blockers, " +
		"sys.stat_activity.id, sys.stat_activity.lock_wait_ns " +
		"FROM sys.stat_locks JOIN sys.stat_activity " +
		"ON sys.stat_locks.txn = sys.stat_activity.id " +
		"WHERE sys.stat_locks.state = 'waiting'")
	if err != nil {
		t.Fatalf("join over system relations: %v", err)
	}
	if len(res.Columns) != 4 {
		t.Fatalf("join columns = %v", res.Columns)
	}
	// Modifications are refused end to end.
	if _, err := sess.Exec("DELETE FROM sys.stat_history"); err == nil {
		t.Fatal("DELETE from a system relation succeeded")
	}
}

func TestScanPosRestore(t *testing.T) {
	env := newEnv(t)
	mkTable(t, env, "t", "heap")
	rel, err := env.OpenRelationByName("sys.stat_relations")
	if err != nil {
		t.Fatal(err)
	}
	tx := env.Begin()
	defer tx.Commit()
	sc, err := rel.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, _, ok, err := sc.Next(); err != nil || !ok {
		t.Fatalf("first next: ok=%v err=%v", ok, err)
	}
	pos := sc.Pos()
	k1, _, ok, err := sc.Next()
	if err != nil || !ok {
		t.Fatalf("second next: ok=%v err=%v", ok, err)
	}
	if err := sc.Restore(pos); err != nil {
		t.Fatalf("restore: %v", err)
	}
	k2, _, ok, err := sc.Next()
	if err != nil || !ok {
		t.Fatalf("post-restore next: ok=%v err=%v", ok, err)
	}
	if string(k1) != string(k2) {
		t.Fatalf("restore did not reposition: %x vs %x", k1, k2)
	}
}

// TestViewSchemasGolden pins every system relation's RelID and columns
// (name, kind, NOT NULL, order). testdata/views.golden was written by the
// hand-listed schemas the row-type walker replaced; -update rewrites it.
func TestViewSchemasGolden(t *testing.T) {
	env := newEnv(t)
	var b strings.Builder
	for id := core.SysRelBase; ; id++ {
		rd, ok := env.Cat.Get(id)
		if !ok {
			break
		}
		fmt.Fprintf(&b, "%s %#x\n", rd.Name, rd.RelID)
		for _, c := range rd.Schema.Cols {
			null := ""
			if c.NotNull {
				null = " NOT NULL"
			}
			fmt.Fprintf(&b, "\t%s %s%s\n", c.Name, c.Kind, null)
		}
	}
	const path = "testdata/views.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("view schemas differ from %s:\n%s", path, b.String())
	}
}

// TestScanPositionIsAKey: a sys scan's bounds and positions are record keys
// compared as bytes, never decoded into ordinals, and a closed scan refuses
// Next and Restore like every other storage method's.
func TestScanPositionIsAKey(t *testing.T) {
	env := newEnv(t)
	for _, name := range []string{"a", "b", "c"} {
		mkTable(t, env, name, "heap")
	}
	rel, err := env.OpenRelationByName("sys.stat_relations")
	if err != nil {
		t.Fatal(err)
	}
	tx := env.Begin()
	defer tx.Commit()
	keys := func(opts core.ScanOptions) []types.Key {
		t.Helper()
		sc, err := rel.Storage().OpenScan(tx, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		var out []types.Key
		for {
			k, _, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, k)
		}
	}
	all := keys(core.ScanOptions{})
	if len(all) < 3 {
		t.Fatalf("%d rows, want at least 3", len(all))
	}
	t.Run("start-bytes", func(t *testing.T) {
		if got := keys(core.ScanOptions{Start: types.Key{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}}); len(got) != 0 {
			t.Fatalf("a start past every row returned %d rows", len(got))
		}
		between := append(all[0].Clone(), 0)
		if got := keys(core.ScanOptions{Start: between}); len(got) == 0 || !got[0].Equal(all[1]) {
			t.Fatalf("a start between rows 0 and 1 resumed at %v, want %v", got, all[1])
		}
	})
	t.Run("closed", func(t *testing.T) {
		sc, err := rel.Storage().OpenScan(tx, core.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := sc.Next(); err != nil || !ok {
			t.Fatalf("first next: ok=%v err=%v", ok, err)
		}
		pos := sc.Pos()
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sc.Restore(pos); err == nil {
			t.Error("Restore on a closed scan accepted")
		}
		if _, _, _, err := sc.Next(); err == nil {
			t.Error("Next on a closed scan accepted")
		}
	})
}

func TestDebugStatEndpoint(t *testing.T) {
	env := core.NewEnv(core.Config{TraceSample: 1})
	partsm.AttachServer(env, "s0", remote.NewServer(0))
	rel := mkTable(t, env, "t", "heap")
	events := mkTable(t, env, "events", "append")
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "p", rel.Desc().Schema, "part", core.AttrList{"key": "id", "servers": "s0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Insert(tx, types.Record{types.Int(1), types.Str("a")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// An open writer keeps sys.stat_locks non-empty while the views are read.
	open := env.Begin()
	defer open.Abort()
	if _, err := events.Insert(open, types.Record{types.Int(1), types.Str("b")}); err != nil {
		t.Fatal(err)
	}
	addr, err := env.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// Short and fully-qualified names address the same view.
	for _, path := range []string{"/stat/relations", "/stat/sys.stat_relations"} {
		code, body := get(path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, code, body)
		}
		var got struct {
			View string           `json:"view"`
			Rows []map[string]any `json:"rows"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: bad JSON: %v", path, err)
		}
		if got.View != "sys.stat_relations" {
			t.Fatalf("view = %q", got.View)
		}
		found := false
		for _, row := range got.Rows {
			if row["name"] == "t" && row["inserts"] == float64(1) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: relation t missing from %s", path, body)
		}
	}
	// Every view's JSON objects carry exactly its schema's columns.
	for id := core.SysRelBase; ; id++ {
		rd, ok := env.Cat.Get(id)
		if !ok {
			break
		}
		path := "/stat/" + strings.TrimPrefix(rd.Name, "sys.stat_")
		code, body := get(path)
		var got struct {
			Rows []map[string]any `json:"rows"`
		}
		if err := json.Unmarshal(body, &got); code != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, %v: %s", path, code, err, body)
		}
		if len(got.Rows) == 0 {
			t.Errorf("%s: no rows on a populated env", path)
		}
		var want []string
		for _, c := range rd.Schema.Cols {
			want = append(want, c.Name)
		}
		sort.Strings(want)
		for _, row := range got.Rows {
			var keys []string
			for k := range row {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if fmt.Sprint(keys) != fmt.Sprint(want) {
				t.Fatalf("%s: row keys %v, want %v", path, keys, want)
			}
		}
	}
	if code, _ := get("/stat/bogus"); code != http.StatusNotFound {
		t.Fatal("unknown view did not 404")
	}
}

// TestStatMetricsIsTheMetricsEndpoint: sys.stat_metrics and /metrics are
// two renderings of one walk, so every sample line of the endpoint (the
// histogram buckets apart) is a row of the view, name and labels alike,
// through SQL, the scan path and /stat/metrics — with no metric named in
// syssm.
func TestStatMetricsIsTheMetricsEndpoint(t *testing.T) {
	env := newEnv(t)
	sess := ddl.NewSession(env)
	for _, stmt := range []string{
		"CREATE TABLE t (id INT NOT NULL, v STRING)",
		"INSERT INTO t VALUES (1, 'a'), (2, 'b')",
		"SELECT v FROM t WHERE id = 2",
	} {
		if _, err := sess.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	res, err := sess.Exec("SELECT value FROM sys.stat_metrics WHERE name = 'dmx_lock_waits_total'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].F != 0 {
		t.Fatalf("lock waits through SQL: %+v, %v", res, err)
	}
	res, err = sess.Exec("SELECT value FROM sys.stat_metrics WHERE name = 'dmx_sm_ops_total' AND labels = 'id=\"2\",ext=\"heap\",op=\"insert\"'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].F != 2 {
		t.Fatalf("heap inserts through SQL: %+v, %v", res, err)
	}

	addr, err := env.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	endpoint := map[string]bool{}
	for _, line := range strings.Split(get("/metrics"), "\n") {
		series, _, ok := strings.Cut(line, " ")
		if ok && !strings.HasPrefix(line, "#") && !strings.Contains(series, "_bucket{") {
			endpoint[series] = true
		}
	}
	rows := scanView(t, env, "sys.stat_metrics")
	for _, r := range rows {
		series := r[0].S
		if r[2].S != "" {
			series += "{" + r[2].S + "}"
		}
		if !endpoint[series] {
			t.Errorf("row %s (%s) is not a /metrics sample", series, r[1].S)
		}
		delete(endpoint, series)
	}
	for series := range endpoint {
		t.Errorf("/metrics sample %s has no sys.stat_metrics row", series)
	}
	for _, prefix := range []string{"dmx_sm_", "dmx_att_", "dmx_lock_", "dmx_wal_", "dmx_buffer_", "dmx_mvcc_",
		"dmx_lsm_", "dmx_txn_", "dmx_plan_", "dmx_part_", "dmx_trace_"} {
		found := false
		for _, r := range rows {
			found = found || strings.HasPrefix(r[0].S, prefix)
		}
		if !found && prefix != "dmx_att_" { // no attachment on t: the att families have headers but no samples
			t.Errorf("no sys.stat_metrics row under %s", prefix)
		}
	}
	var served struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal([]byte(get("/stat/metrics")), &served); err != nil || len(served.Rows) < len(rows) {
		t.Fatalf("/stat/metrics: %d rows, %v", len(served.Rows), err)
	}
}

// TestConcurrentObservation drives 8 writers through mixed DML while
// observers continuously scan the system relations; under -race this
// proves the self-observation read paths are safe against live mutation.
func TestConcurrentObservation(t *testing.T) {
	env := newEnv(t)
	rel := mkTable(t, env, "t", "heap")

	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := env.Begin()
				key, err := rel.Insert(tx, types.Record{types.Int(int64(w*1_000_000 + i)), types.Str("v")})
				if err != nil {
					tx.Abort()
					continue
				}
				switch i % 3 {
				case 0:
					_, err = rel.Update(tx, key, types.Record{types.Int(int64(i)), types.Str("u")})
				case 1:
					err = rel.Delete(tx, key)
				}
				if err != nil {
					tx.Abort()
					continue
				}
				if i%5 == 0 {
					tx.Abort()
				} else {
					tx.Commit()
				}
			}
		}(w)
	}

	views := []string{"sys.stat_activity", "sys.stat_locks", "sys.stat_relations", "sys.stat_history", "sys.stat_buffer"}
	for o := 0; o < 2; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			arity := make(map[string]int)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				view := views[(i+o)%len(views)]
				rows := scanView(t, env, view)
				// Torn-row check: every row of a view has the same arity.
				for _, rec := range rows {
					if want, ok := arity[view]; ok && len(rec) != want {
						t.Errorf("%s: torn row arity %d vs %d", view, len(rec), want)
						return
					} else if !ok {
						arity[view] = len(rec)
					}
				}
			}
		}(o)
	}

	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()
}
