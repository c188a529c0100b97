// Package sm_test holds the storage-method conformance suite: the contract
// of core.StorageInstance and core.Scan, run through core.Relation against
// every registered non-system storage method. A new storage method adds one
// row to methods and inherits every check below; what stays in its own
// package's tests is only what is particular to it.
package sm_test

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/remote"
	_ "dmx/internal/sm/appendsm"
	_ "dmx/internal/sm/btreesm"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/sm/partsm"
	"dmx/internal/sm/smutil"
	_ "dmx/internal/sm/syssm"
	_ "dmx/internal/sm/tempsm"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// method is one storage method under test and the parts of the contract
// that legitimately differ between methods.
type method struct {
	name  string
	attrs core.AttrList
	// keyed: field 0 is the record key — keys are its order-preserving
	// encoding, duplicates are refused, updating it moves the record.
	keyed bool
	// logged: abort and partial rollback restore the contents.
	logged bool
	// recoverable: the contents survive restart recovery from the log.
	recoverable bool
}

// Small batches make remote scans cross batch (and shard) boundaries.
var methods = []method{
	{name: "heap", logged: true, recoverable: true},
	{name: "memory", logged: true, recoverable: true},
	{name: "temp"},
	{name: "btree", attrs: core.AttrList{"key": "id"}, keyed: true, logged: true, recoverable: true},
	{name: "append", logged: true, recoverable: true},
	{name: "remote", attrs: core.AttrList{"server": "s0", "batch": "3"}, logged: true, recoverable: true},
	{name: "part", attrs: core.AttrList{"key": "id", "servers": "s0,s1,s2", "batch": "3"}, keyed: true, logged: true, recoverable: true},
}

func TestEveryStorageMethodIsCovered(t *testing.T) {
	covered := map[string]bool{"sys": true} // virtual and read-only: syssm's own tests
	for _, m := range methods {
		covered[m.name] = true
	}
	for _, name := range core.DefaultRegistry.StorageMethodNames() {
		if !covered[name] {
			t.Errorf("storage method %q is registered but not in the conformance table", name)
		}
	}
}

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "v", Kind: types.KindString},
	)
}

func rec(id int64, v string) types.Record { return types.Record{types.Int(id), types.Str(v)} }

// newEnv returns an environment over log with three fresh foreign servers
// attached (the restart tests attach empty ones: the local log alone must
// rebuild remote contents), and those servers.
func newEnv(t *testing.T, log *wal.Log) (*core.Env, []*remote.Server) {
	env := core.NewEnv(core.Config{Log: log})
	var srvs []*remote.Server
	for _, name := range []string{"s0", "s1", "s2"} {
		srv := remote.NewServer(0)
		partsm.AttachServer(env, name, srv)
		srvs = append(srvs, srv)
	}
	t.Cleanup(func() { env.Close() })
	return env, srvs
}

func (m method) create(t *testing.T, env *core.Env) *core.Relation {
	t.Helper()
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "t", schema(), m.name, m.attrs)
	if err != nil {
		t.Fatal(err)
	}
	must(t, tx.Commit())
	r, err := env.OpenRelation(rd)
	must(t, err)
	return r
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// load inserts ids (each with value "v<id>") in one committed transaction.
func load(t *testing.T, env *core.Env, r *core.Relation, ids ...int64) {
	t.Helper()
	tx := env.Begin()
	for _, id := range ids {
		_, err := r.Insert(tx, rec(id, fmt.Sprintf("v%d", id)))
		must(t, err)
	}
	must(t, tx.Commit())
}

type row struct {
	key types.Key
	rec types.Record
}

func drain(t *testing.T, sc core.Scan) []row {
	t.Helper()
	var out []row
	for {
		k, r, ok, err := sc.Next()
		must(t, err)
		if !ok {
			return out
		}
		out = append(out, row{k, r})
	}
}

// contents scans the whole relation in a fresh transaction, checking the
// scan's defining property on the way: strictly ascending record keys.
func contents(t *testing.T, env *core.Env, r *core.Relation) []row {
	t.Helper()
	tx := env.Begin()
	defer tx.Commit()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	must(t, err)
	rows := drain(t, sc)
	for i := 1; i < len(rows); i++ {
		if rows[i-1].key.Compare(rows[i].key) >= 0 {
			t.Fatalf("scan not in record-key order at %d: %v then %v", i, rows[i-1].key, rows[i].key)
		}
	}
	return rows
}

// wantRows checks rows against id → value, in any order.
func wantRows(t *testing.T, what string, rows []row, want map[int64]string) {
	t.Helper()
	got := map[int64]string{}
	for _, r := range rows {
		got[r.rec[0].AsInt()] = r.rec[1].S
	}
	if len(rows) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: contents %v, want %v", what, got, want)
	}
}

func TestConformance(t *testing.T) {
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			t.Run("ddl", m.testDDL)
			t.Run("fetch", m.testFetch)
			t.Run("missing-key", m.testMissingKey)
			t.Run("keys", m.testKeys)
			t.Run("scan", m.testScan)
			t.Run("filtered-scan", m.testFilteredScan)
			t.Run("fetch-equals-scan", m.testFetchEqualsScan)
			t.Run("scan-mutation", m.testScanMutation)
			t.Run("scan-ahead-mutation", m.testScanAheadMutation)
			t.Run("partial-rollback", m.testPartialRollback)
			t.Run("closed-scan", m.testClosedScan)
			t.Run("abort", m.testAbort)
			t.Run("restart", m.testRestart)
			t.Run("close-reopen", m.testCloseReopen)
		})
	}
}

func (m method) testDDL(t *testing.T) {
	env, _ := newEnv(t, nil)
	tx := env.Begin()
	defer tx.Abort()
	// fillpercent sounds like a heap setting, but no method reads it.
	for _, unknown := range []string{"colour", "fillpercent"} {
		attrs := core.AttrList{unknown: "50"}
		for k, v := range m.attrs {
			attrs[k] = v
		}
		if _, err := env.CreateRelation(tx, "t", schema(), m.name, attrs); err == nil {
			t.Fatalf("unknown DDL attribute %s accepted", unknown)
		}
	}
}

// testFetch: insert, direct-by-key fetch with filter and projection,
// update, delete, and what the record count says throughout.
func (m method) testFetch(t *testing.T) {
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	tx := env.Begin()
	keys := map[int64]types.Key{}
	for _, id := range []int64{3, 1, 4, 0, 2} {
		k, err := r.Insert(tx, rec(id, "a"))
		must(t, err)
		for other, ok := range keys {
			if ok.Equal(k) {
				t.Fatalf("records %d and %d share record key %v", other, id, k)
			}
		}
		keys[id] = k
	}
	got, err := r.Fetch(tx, keys[4], nil, nil)
	if err != nil || len(got) != 2 || got[0].AsInt() != 4 || got[1].S != "a" {
		t.Fatalf("fetch: %v %v", got, err)
	}
	got, err = r.Fetch(tx, keys[4], []int{1}, expr.Compile(env.Eval, expr.Eq(expr.Field(0), expr.Const(types.Int(4)))))
	if err != nil || len(got) != 1 || got[0].S != "a" {
		t.Fatalf("filtered, projected fetch: %v %v", got, err)
	}
	if _, err := r.Fetch(tx, keys[4], nil, expr.Compile(env.Eval, expr.Eq(expr.Field(0), expr.Const(types.Int(5))))); !errors.Is(err, core.ErrFiltered) {
		t.Fatalf("fetch of a record the filter rejects: %v", err)
	}
	nk, err := r.Update(tx, keys[4], rec(4, "b"))
	if err != nil || !nk.Equal(keys[4]) {
		t.Fatalf("update leaving the key fields alone: key %v -> %v, %v", keys[4], nk, err)
	}
	if got, err := r.Fetch(tx, nk, nil, nil); err != nil || got[1].S != "b" {
		t.Fatalf("fetch after update: %v %v", got, err)
	}
	must(t, r.Delete(tx, keys[0]))
	if _, err := r.Fetch(tx, keys[0], nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("fetch of a deleted record: %v", err)
	}
	if err := r.Delete(tx, keys[0]); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("second delete: %v", err)
	}
	must(t, tx.Commit())
	if n := r.Storage().RecordCount(); n != 4 {
		t.Fatalf("count after commit = %d, want 4", n)
	}
}

// testMissingKey: a well-formed record key that was never issued is not
// found by fetch, update or delete, from a locking transaction or a
// snapshot, and looking for it leaves the relation's size alone — a read
// never grows a relation.
func (m method) testMissingKey(t *testing.T) {
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	load(t, env, r, 1)
	missing := types.EncodeKeyValues(types.Int(999))
	if !m.keyed {
		// Assigned keys are 8 bytes — a sequence number, or heap's (page,
		// slot): an issued key with high-order bytes set names sequence
		// number 0x1388…, or slot 0 of page 5000.
		missing = contents(t, env, r)[0].key.Clone()
		missing[2], missing[3] = 0x13, 0x88
	}
	type pageCounter interface{ PageCount() int }
	pages := func() int {
		if pc, ok := r.Storage().(pageCounter); ok {
			return pc.PageCount()
		}
		return 0
	}
	before := pages()
	tx := env.Begin()
	if _, err := r.Fetch(tx, missing, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("fetch of a key never issued: %v", err)
	}
	if _, err := r.Update(tx, missing, rec(1, "x")); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("update of a key never issued: %v", err)
	}
	if err := r.Delete(tx, missing); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("delete of a key never issued: %v", err)
	}
	must(t, tx.Commit())
	ro := env.BeginReadOnly()
	if _, err := r.Fetch(ro, missing, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("read-only fetch of a key never issued: %v", err)
	}
	must(t, ro.Commit())
	if n := r.Storage().RecordCount(); n != 1 {
		t.Errorf("RecordCount = %d after looking for a missing key, want 1", n)
	}
	if after := pages(); after != before {
		t.Errorf("PageCount %d -> %d: looking for a missing key grew the relation", before, after)
	}
	wantRows(t, "contents", contents(t, env, r), map[int64]string{1: "v1"})
}

// testKeys: what keyed methods promise about record keys.
func (m method) testKeys(t *testing.T) {
	if !m.keyed {
		t.Skip("record keys are assigned, not composed from fields")
	}
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	load(t, env, r, 1, 2)
	tx := env.Begin()
	defer tx.Commit()
	k3, err := r.Insert(tx, rec(3, "x"))
	must(t, err)
	if want := types.EncodeKeyValues(types.Int(3)); !k3.Equal(want) {
		t.Fatalf("record key %v, want the encoded key fields %v", k3, want)
	}
	// Collisions with a committed record and with the transaction's own
	// uncommitted one are both refused, without partial effects.
	for _, id := range []int64{1, 3} {
		if _, err := r.Insert(tx, rec(id, "dup")); !errors.Is(err, smutil.ErrDuplicateKey) {
			t.Fatalf("insert of duplicate key %d: %v", id, err)
		}
	}
	moved, err := r.Update(tx, k3, rec(7, "x"))
	if err != nil || moved.Equal(k3) {
		t.Fatalf("update of a key field must move the record: %v -> %v, %v", k3, moved, err)
	}
	if _, err := r.Fetch(tx, k3, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("old key after a key-moving update: %v", err)
	}
	if _, err := r.Update(tx, moved, rec(2, "x")); !errors.Is(err, smutil.ErrDuplicateKey) {
		t.Fatalf("update moving onto an existing key: %v", err)
	}
	wantRows(t, "own view", scanIn(t, tx, r, core.ScanOptions{}), map[int64]string{1: "v1", 2: "v2", 7: "x"})
}

func scanIn(t *testing.T, tx *txn.Txn, r *core.Relation, opts core.ScanOptions) []row {
	t.Helper()
	sc, err := r.OpenScan(tx, opts)
	must(t, err)
	defer sc.Close()
	return drain(t, sc)
}

// testScan: key order, filter and projection pushed into the scan, and
// [Start, End) bounds.
func (m method) testScan(t *testing.T) {
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	load(t, env, r, 5, 1, 9, 3, 7, 0, 8, 2, 6, 4)
	all := contents(t, env, r)
	if len(all) != 10 {
		t.Fatalf("full scan returned %d records, want 10", len(all))
	}
	tx := env.Begin()
	defer tx.Commit()
	rows := scanIn(t, tx, r, core.ScanOptions{
		Filter: expr.Bind(expr.Lt(expr.Field(0), expr.Param(0)), []types.Value{types.Int(3)}),
		Fields: []int{0},
	})
	if len(rows) != 3 {
		t.Fatalf("filtered scan returned %d records, want 3", len(rows))
	}
	for _, row := range rows {
		if len(row.rec) != 1 || row.rec[0].AsInt() >= 3 {
			t.Fatalf("filtered, projected scan returned %v", row.rec)
		}
	}
	rows = scanIn(t, tx, r, core.ScanOptions{Start: all[3].key, End: all[7].key})
	if len(rows) != 4 {
		t.Fatalf("[Start, End) scan returned %d records, want 4", len(rows))
	}
	for i, row := range rows {
		if !row.key.Equal(all[3+i].key) {
			t.Fatalf("[Start, End) scan position %d: key %v, want %v", i, row.key, all[3+i].key)
		}
	}
	// A position taken before the first Next restores to Start.
	sc, err := r.OpenScan(tx, core.ScanOptions{Start: all[3].key})
	must(t, err)
	defer sc.Close()
	pos := sc.Pos()
	for i := 0; i < 2; i++ {
		_, _, _, err := sc.Next()
		must(t, err)
	}
	must(t, sc.Restore(pos))
	if k, _, ok, err := sc.Next(); err != nil || !ok || !k.Equal(all[3].key) {
		t.Fatalf("scan restored to its opening position returned %v %v %v, want Start %v", k, ok, err, all[3].key)
	}
}

// testFilteredScan: a filtered scan returns exactly the rows of a full
// scan that the tree walker accepts, however the filter compiles — a
// conjunction of field-constant terms, one bound to parameters, one with
// an OR residual, an IS NULL. A method with snapshot versions is also
// checked on a read-only snapshot that a later update overtook, so the
// scan qualifies a version the store had to reconstruct.
func (m method) testFilteredScan(t *testing.T) {
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	tx := env.Begin()
	for id := int64(0); id < 12; id++ {
		v := types.Str(fmt.Sprintf("v%d", id%4))
		if id%3 == 0 {
			v = types.Null()
		}
		_, err := r.Insert(tx, types.Record{types.Int(id), v})
		must(t, err)
	}
	must(t, tx.Commit())
	params := []types.Value{types.Int(3), types.Str("v1")}
	filters := []*expr.Expr{
		expr.And(expr.Ge(expr.Field(0), expr.Const(types.Int(2))), expr.Lt(expr.Field(0), expr.Const(types.Int(9)))),
		expr.Bind(expr.And(expr.Gt(expr.Field(0), expr.Param(0)), expr.Eq(expr.Field(1), expr.Param(1))), params),
		expr.And(expr.Lt(expr.Field(0), expr.Const(types.Int(10))),
			expr.Or(expr.Eq(expr.Field(1), expr.Const(types.Str("v2"))), expr.IsNull(expr.Field(1)))),
		expr.IsNull(expr.Field(1)),
	}
	check := func(what string, tx *txn.Txn) []row {
		t.Helper()
		all := scanIn(t, tx, r, core.ScanOptions{})
		for _, f := range filters {
			var want []row
			for _, row := range all {
				ok, err := env.Eval.EvalBool(f, row.rec, nil)
				must(t, err)
				if ok {
					want = append(want, row)
				}
			}
			got := scanIn(t, tx, r, core.ScanOptions{Filter: f})
			if len(got) != len(want) {
				t.Fatalf("%s: %s returned %d rows, want %d", what, f, len(got), len(want))
			}
			for i := range want {
				if !got[i].key.Equal(want[i].key) || !got[i].rec.Equal(want[i].rec) {
					t.Fatalf("%s: %s row %d is %v %v, want %v %v", what, f, i, got[i].key, got[i].rec, want[i].key, want[i].rec)
				}
			}
		}
		return all
	}
	tx = env.Begin()
	before := check("committed", tx)
	must(t, tx.Commit())
	if _, versioned := r.Storage().(core.VersionedStorage); !versioned {
		return
	}
	ro := env.BeginReadOnly()
	defer ro.Commit()
	w := env.Begin()
	_, err := r.Update(w, before[4].key, rec(4, "v2"))
	must(t, err)
	must(t, w.Commit())
	if snap := check("snapshot", ro); !snap[4].rec.Equal(before[4].rec) {
		t.Fatalf("snapshot scan read %v, the update after the snapshot began, not %v", snap[4].rec, before[4].rec)
	}
}

// testFetchEqualsScan: a direct-by-key fetch returns the row a filtered,
// projected scan returns for its key, for field lists nil, partial,
// reordered, duplicated and empty, and filters that accept every row,
// some, none (the fetch is ErrFiltered) and that fail (the scan and the
// fetch both report the walker's error) — in a locking transaction and,
// for a method with snapshot versions, on a snapshot a later update and
// delete overtook, so the fetch qualifies versions the store rebuilt.
func (m method) testFetchEqualsScan(t *testing.T) {
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	load(t, env, r, 1, 2, 3, 4)
	fieldLists := [][]int{nil, {1}, {1, 0}, {0, 1, 0}, {}}
	filters := []struct {
		f    *expr.Expr
		rows int // rows the scan returns; -1: it fails
	}{
		{expr.And(expr.Ge(expr.Field(0), expr.Const(types.Int(0))), expr.Not(expr.IsNull(expr.Field(1)))), 4},
		{expr.Or(expr.Eq(expr.Field(1), expr.Const(types.Str("v2"))), expr.Gt(expr.Field(0), expr.Const(types.Int(3)))), 2},
		{expr.Eq(expr.Field(1), expr.Const(types.Str("none"))), 0},
		{expr.Eq(expr.Call("nosuch", expr.Field(0)), expr.Const(types.Int(1))), -1},
	}
	scan := func(tx *txn.Txn, opts core.ScanOptions) (map[string]types.Record, error) {
		sc, err := r.OpenScan(tx, opts)
		if err != nil {
			return nil, err
		}
		defer sc.Close()
		rows := map[string]types.Record{}
		for {
			k, rec, ok, err := sc.Next()
			if err != nil || !ok {
				return rows, err
			}
			rows[string(k)] = rec
		}
	}
	check := func(what string, tx *txn.Txn, keys []types.Key) {
		t.Helper()
		for _, c := range filters {
			prog := expr.Compile(env.Eval, c.f)
			for _, fields := range fieldLists {
				want, werr := scan(tx, core.ScanOptions{Filter: c.f, Fields: fields})
				if (werr != nil) != (c.rows < 0) || werr == nil && len(want) != c.rows {
					t.Fatalf("%s: scan %s fields %#v returned %d rows, %v; want %d", what, c.f, fields, len(want), werr, c.rows)
				}
				for _, k := range keys {
					got, err := r.Fetch(tx, k, fields, prog)
					rec, in := want[string(k)]
					switch {
					case werr != nil:
						if err == nil || errors.Is(err, core.ErrFiltered) || errors.Is(err, core.ErrNotFound) {
							t.Fatalf("%s: %s fields %#v failed the scan (%v); fetch of %v answered %v, %v", what, c.f, fields, werr, k, got, err)
						}
					case in:
						if err != nil || len(got) != len(rec) || !got.Equal(rec) {
							t.Fatalf("%s: %s fields %#v: fetch of %v answered %v, %v; the scan %v", what, c.f, fields, k, got, err, rec)
						}
					case !errors.Is(err, core.ErrFiltered):
						t.Fatalf("%s: %s fields %#v: fetch of %v answered %v, %v; the scan passed it over", what, c.f, fields, k, got, err)
					}
				}
			}
		}
	}
	var keys []types.Key
	for _, row := range contents(t, env, r) {
		keys = append(keys, row.key)
	}
	tx := env.Begin()
	check("locking", tx, keys)
	must(t, tx.Commit())
	if _, versioned := r.Storage().(core.VersionedStorage); !versioned {
		return
	}
	ro := env.BeginReadOnly()
	defer ro.Commit()
	w := env.Begin()
	_, err := r.Update(w, keys[1], rec(2, "w2"))
	must(t, err)
	must(t, r.Delete(w, keys[3]))
	must(t, w.Commit())
	check("snapshot", ro, keys)
}

// testScanMutation: the scan is "on" the last item returned; deleting that
// item leaves the scan just after it, and a restored position replays
// from there against current contents.
func (m method) testScanMutation(t *testing.T) {
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	load(t, env, r, 0, 1, 2, 3, 4)
	all := contents(t, env, r)
	tx := env.Begin()
	defer tx.Commit()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	must(t, err)
	k0, _, ok, err := sc.Next()
	if err != nil || !ok || !k0.Equal(all[0].key) {
		t.Fatalf("first: %v %v %v", k0, ok, err)
	}
	pos := sc.Pos()
	must(t, r.Delete(tx, k0))
	k1, r1, ok, err := sc.Next()
	if err != nil || !ok || !k1.Equal(all[1].key) {
		t.Fatalf("next after delete-at-position: %v %v %v, want key %v", k1, ok, err, all[1].key)
	}
	// Same length: a heap record that grows may move to a new address.
	_, err = r.Update(tx, k1, rec(r1[0].AsInt(), "w1"))
	must(t, err)
	must(t, sc.Restore(pos))
	k1b, r1b, ok, err := sc.Next()
	if err != nil || !ok || !k1b.Equal(k1) || r1b[1].S != "w1" {
		t.Fatalf("restored scan returned %v %v %v %v, want the updated %v", k1b, r1b, ok, err, k1)
	}
	if rest := drain(t, sc); len(rest) != 3 {
		t.Fatalf("scan returned %d more records, want 3", len(rest))
	}
}

// testScanAheadMutation changes the relation ahead of an open scan's
// position, between two Next calls: a record is inserted (between the
// position and the next record, where the method's keys allow choosing)
// and the record after the next one is deleted. The rest of the scan is
// what a scan opened afterwards returns past the position.
func (m method) testScanAheadMutation(t *testing.T) {
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	load(t, env, r, 0, 2, 4, 6, 8)
	tx := env.Begin()
	defer tx.Commit()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	must(t, err)
	k0, _, ok, err := sc.Next()
	if err != nil || !ok {
		t.Fatalf("first: %v %v %v", k0, ok, err)
	}
	_, err = r.Insert(tx, rec(1, "new"))
	must(t, err)
	after := func() []row {
		var out []row
		for _, row := range scanIn(t, tx, r, core.ScanOptions{}) {
			if row.key.Compare(k0) > 0 {
				out = append(out, row)
			}
		}
		return out
	}
	must(t, r.Delete(tx, after()[1].key))
	want := after()
	got := drain(t, sc)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan after changes ahead of its position returned %v, want %v", got, want)
	}
}

// testPartialRollback: scan positions are captured at a savepoint and
// restored by rollback to it, over contents the rollback itself restored.
func (m method) testPartialRollback(t *testing.T) {
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	load(t, env, r, 0, 1, 2, 3, 4, 5)
	all := contents(t, env, r)
	tx := env.Begin()
	defer tx.Commit()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	must(t, err)
	for i := 0; i < 2; i++ {
		_, _, _, err := sc.Next()
		must(t, err)
	}
	_, err = tx.Savepoint("sp")
	must(t, err)
	for i := 0; i < 2; i++ {
		_, _, _, err := sc.Next()
		must(t, err)
	}
	if m.logged {
		must(t, r.Delete(tx, all[4].key))
		_, err = r.Update(tx, all[5].key, rec(5, "changed"))
		must(t, err)
		_, err = r.Insert(tx, rec(99, "new"))
		must(t, err)
	}
	must(t, tx.RollbackTo("sp"))
	rest := drain(t, sc)
	if len(rest) != 4 {
		t.Fatalf("after rollback the scan returned %d records, want the 4 after the savepoint position", len(rest))
	}
	for i, row := range rest {
		if !row.key.Equal(all[2+i].key) || row.rec[1].S != all[2+i].rec[1].S {
			t.Fatalf("after rollback, position %d: %v %v, want %v %v", i, row.key, row.rec, all[2+i].key, all[2+i].rec)
		}
	}
}

// testClosedScan goes under the relation's scan management to the storage
// method's own scan: a closed scan refuses Next and Restore.
func (m method) testClosedScan(t *testing.T) {
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	load(t, env, r, 0, 1)
	tx := env.Begin()
	defer tx.Commit()
	sc, err := r.Storage().OpenScan(tx, core.ScanOptions{})
	must(t, err)
	_, _, _, err = sc.Next()
	must(t, err)
	pos := sc.Pos()
	must(t, sc.Restore(pos))
	must(t, sc.Close())
	if err := sc.Restore(pos); err == nil {
		t.Fatal("Restore on a closed scan accepted")
	}
	if _, _, _, err := sc.Next(); err == nil {
		t.Fatal("Next on a closed scan accepted")
	}
}

// testAbort: an aborted transaction's inserts, updates (key-moving ones
// included) and deletes leave no trace — or, for an unlogged method, stay.
func (m method) testAbort(t *testing.T) {
	env, _ := newEnv(t, nil)
	r := m.create(t, env)
	load(t, env, r, 1, 2, 3)
	all := contents(t, env, r)
	tx := env.Begin()
	_, err := r.Insert(tx, rec(4, "drop"))
	must(t, err)
	must(t, r.Delete(tx, all[0].key))
	_, err = r.Update(tx, all[1].key, rec(2, "changed"))
	must(t, err)
	if m.keyed {
		_, err = r.Update(tx, all[2].key, rec(30, "moved"))
		must(t, err)
	}
	must(t, tx.Abort())
	if !m.logged {
		wantRows(t, "unlogged contents after abort", contents(t, env, r), map[int64]string{2: "changed", 3: "v3", 4: "drop"})
		return
	}
	after := contents(t, env, r)
	wantRows(t, "after abort", after, map[int64]string{1: "v1", 2: "v2", 3: "v3"})
	for i := range all {
		if !after[i].key.Equal(all[i].key) {
			t.Fatalf("record key %v became %v across an aborted transaction", all[i].key, after[i].key)
		}
	}
	if n := r.Storage().RecordCount(); n != 3 {
		t.Fatalf("count after abort = %d, want 3", n)
	}
}

// testRestart: restart recovery over the log alone (fresh buffer pool,
// fresh foreign servers) rebuilds committed contents under the same record
// keys, drops losers, and never reissues a replayed key.
func (m method) testRestart(t *testing.T) {
	log := wal.New()
	env, _ := newEnv(t, log)
	r := m.create(t, env)
	load(t, env, r, 0, 1, 2, 3, 4)
	before := contents(t, env, r)
	tx := env.Begin()
	_, err := r.Update(tx, before[1].key, rec(1, "changed"))
	must(t, err)
	must(t, r.Delete(tx, before[2].key))
	must(t, tx.Commit())
	before = contents(t, env, r)
	loser := env.Begin()
	_, err = r.Insert(loser, rec(9, "loser"))
	must(t, err)
	_, err = r.Update(loser, before[0].key, rec(0, "loser"))
	must(t, err)
	// crash: the loser never ends

	env2, _ := newEnv(t, log)
	must(t, env2.Recover())
	r2, err := env2.OpenRelationByName("t")
	must(t, err)
	after := contents(t, env2, r2)
	if !m.recoverable {
		if len(after) != 0 {
			t.Fatalf("unrecoverable method came back with %d records", len(after))
		}
		return
	}
	wantRows(t, "recovered", after, map[int64]string{0: "v0", 1: "changed", 3: "v3", 4: "v4"})
	for i := range before {
		if !after[i].key.Equal(before[i].key) {
			t.Fatalf("record key %v recovered as %v", before[i].key, after[i].key)
		}
	}
	tx2 := env2.Begin()
	k, err := r2.Insert(tx2, rec(7, "post"))
	must(t, err)
	must(t, tx2.Commit())
	i := sort.Search(len(after), func(i int) bool { return after[i].key.Compare(k) >= 0 })
	if i < len(after) && after[i].key.Equal(k) {
		t.Fatalf("post-recovery insert reused recovered record key %v", k)
	}
	if got := contents(t, env2, r2); len(got) != 5 {
		t.Fatalf("post-recovery contents: %d records, want 5", len(got))
	}
}

// testCloseReopen: closing the environment releases what an instance
// holds and a later use reopens it. An instance that is an io.Closer (a
// shard connection per server) is closed and replaced by a fresh one, and
// no server is left serving it; any other instance keeps authoritative
// in-memory state, so it stays. Either way the rows read back unchanged
// under the same record keys.
func (m method) testCloseReopen(t *testing.T) {
	env, srvs := newEnv(t, nil)
	r := m.create(t, env)
	load(t, env, r, 0, 1, 2, 3, 4)
	before := contents(t, env, r)
	_, closer := r.Storage().(io.Closer)
	must(t, env.Close())
	for i, srv := range srvs {
		if n := srv.Serving.Load(); n != 0 {
			t.Fatalf("server s%d still serves %d connections after Close", i, n)
		}
	}
	r2, err := env.OpenRelationByName("t")
	must(t, err)
	if fresh := r2.Storage() != r.Storage(); fresh != closer {
		t.Fatalf("reopened instance fresh = %v, want %v (io.Closer = %v)", fresh, closer, closer)
	}
	after := contents(t, env, r2)
	if len(after) != len(before) {
		t.Fatalf("reopened: %d records, want %d", len(after), len(before))
	}
	for i := range before {
		if !after[i].key.Equal(before[i].key) || !after[i].rec.Equal(before[i].rec) {
			t.Fatalf("record %d reopened as %v %v, want %v %v",
				i, after[i].key, after[i].rec, before[i].key, before[i].rec)
		}
	}
}
