package heap_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	_ "dmx/internal/sm/heap"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "payload", Kind: types.KindString},
	)
}

func mkHeap(t *testing.T, env *core.Env, name string) *core.Relation {
	t.Helper()
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, name, schema(), "heap", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func rec(id int64, payload string) types.Record {
	return types.Record{types.Int(id), types.Str(payload)}
}

func TestInsertFetchAcrossPages(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	keys := make([]types.Key, 0, 500)
	for i := 0; i < 500; i++ {
		k, err := r.Insert(tx, rec(int64(i), strings.Repeat("x", 50)))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	tx.Commit()
	if r.Storage().RecordCount() != 500 {
		t.Fatalf("count = %d", r.Storage().RecordCount())
	}

	tx2 := env.Begin()
	for i, k := range keys {
		got, err := r.Fetch(tx2, k, nil, nil)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if got[0].AsInt() != int64(i) {
			t.Fatalf("fetch %d returned id %d", i, got[0].AsInt())
		}
	}
	tx2.Commit()
	// 500 × ~60B records at 4KB/page must span multiple pages.
	type pageCounter interface{ PageCount() int }
	if pc := r.Storage().(pageCounter).PageCount(); pc < 5 {
		t.Fatalf("PageCount = %d, expected multi-page relation", pc)
	}
}

func TestUpdateInPlaceKeepsKey(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	k, _ := r.Insert(tx, rec(1, "long-initial-payload"))
	nk, err := r.Update(tx, k, rec(1, "short"))
	if err != nil {
		t.Fatal(err)
	}
	if !nk.Equal(k) {
		t.Fatal("in-place update should keep the record key")
	}
	got, _ := r.Fetch(tx, nk, nil, nil)
	if got[1].S != "short" {
		t.Fatalf("fetched %v", got)
	}
	tx.Commit()
}

func TestUpdateGrowingMovesRecord(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	k, _ := r.Insert(tx, rec(1, "tiny"))
	nk, err := r.Update(tx, k, rec(1, strings.Repeat("grown", 50)))
	if err != nil {
		t.Fatal(err)
	}
	if nk.Equal(k) {
		t.Fatal("growing update should move to a new record address")
	}
	if _, err := r.Fetch(tx, k, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("old address should be gone: %v", err)
	}
	got, err := r.Fetch(tx, nk, nil, nil)
	if err != nil || len(got[1].S) != 250 {
		t.Fatalf("moved record: %v %v", got, err)
	}
	tx.Commit()
	if r.Storage().RecordCount() != 1 {
		t.Fatalf("count = %d", r.Storage().RecordCount())
	}
}

func TestAbortRestoresHeap(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	k1, _ := r.Insert(tx, rec(1, "keep"))
	k2, _ := r.Insert(tx, rec(2, "keep"))
	tx.Commit()

	tx2 := env.Begin()
	r.Insert(tx2, rec(3, "drop"))
	r.Delete(tx2, k1)
	r.Update(tx2, k2, rec(2, "changed"))
	r.Update(tx2, k2, rec(2, strings.Repeat("moved", 60))) // forces move
	tx2.Abort()

	if r.Storage().RecordCount() != 2 {
		t.Fatalf("count after abort = %d", r.Storage().RecordCount())
	}
	tx3 := env.Begin()
	g1, err := r.Fetch(tx3, k1, nil, nil)
	if err != nil || g1[1].S != "keep" {
		t.Fatalf("k1 = %v %v", g1, err)
	}
	g2, err := r.Fetch(tx3, k2, nil, nil)
	if err != nil || g2[1].S != "keep" {
		t.Fatalf("k2 = %v %v", g2, err)
	}
	tx3.Commit()
}

func TestRestartRecoveryRebuildsHeap(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	var keep types.Key
	for i := 0; i < 50; i++ {
		k, _ := r.Insert(tx, rec(int64(i), fmt.Sprintf("v%d", i)))
		if i == 25 {
			keep = k
		}
	}
	keep, err := r.Update(tx, keep, rec(25, "updated"))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	loser := env.Begin()
	r.Insert(loser, rec(99, "loser"))
	// crash

	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	r2, err := env2.OpenRelationByName("t")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Storage().RecordCount() != 50 {
		t.Fatalf("recovered count = %d", r2.Storage().RecordCount())
	}
	tx2 := env2.Begin()
	got, err := r2.Fetch(tx2, keep, nil, nil)
	if err != nil || got[1].S != "updated" {
		t.Fatalf("recovered record = %v %v", got, err)
	}
	tx2.Commit()
}

func TestOversizedRecordRejected(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	if _, err := r.Insert(tx, rec(1, strings.Repeat("z", 5000))); err == nil {
		t.Fatal("page-exceeding record accepted")
	}
	tx.Commit()
}

func TestCostEstimateReflectsPages(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	for i := 0; i < 300; i++ {
		r.Insert(tx, rec(int64(i), strings.Repeat("x", 100)))
	}
	tx.Commit()
	est := r.Storage().EstimateCost(core.CostRequest{})
	if !est.Usable || est.IO < 5 || est.CPU != 300 {
		t.Fatalf("estimate = %+v", est)
	}
	// Selectivity drops with an equality conjunct.
	est2 := r.Storage().EstimateCost(core.CostRequest{
		Conjuncts: []*expr.Expr{expr.Eq(expr.Field(0), expr.Const(types.Int(1)))},
	})
	if est2.Selectivity >= est.Selectivity {
		t.Fatalf("selectivity: %v !< %v", est2.Selectivity, est.Selectivity)
	}
}

func TestDiskIOCounted(t *testing.T) {
	env := core.NewEnv(core.Config{PoolFrames: 2})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	for i := 0; i < 300; i++ {
		r.Insert(tx, rec(int64(i), strings.Repeat("x", 100)))
	}
	tx.Commit()
	// With a 2-frame pool, a full scan of a ~10-page relation must do disk
	// reads (misses) and the stats must show it.
	tx2 := env.Begin()
	scan, _ := r.OpenScan(tx2, core.ScanOptions{})
	for {
		_, _, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	tx2.Commit()
	if env.Pool.Disk().Stats().Reads == 0 {
		t.Fatal("expected disk reads with tiny pool")
	}
}

// Regression: a checkpoint snapshot re-places each record at its current
// size, so a slot that shrank in place before the checkpoint loses the
// headroom an overwrite replayed after it needs. Redo must re-place the
// record on the page instead of failing the capacity check.
func TestRecoveryReplaysOverwriteIntoSnapshotShrunkSlot(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	k, _ := r.Insert(tx, rec(1, "a-long-initial-payload"))
	tx.Commit()

	tx2 := env.Begin()
	if _, err := r.Update(tx2, k, rec(1, "tiny")); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if err := env.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Same length as the original, so the run-time slot still has the
	// headroom and the update stays in place at the same record address.
	tx3 := env.Begin()
	nk, err := r.Update(tx3, k, rec(1, "b-long-update-payload!"))
	if err != nil {
		t.Fatal(err)
	}
	if !nk.Equal(k) {
		t.Fatal("update should have stayed in place")
	}
	tx3.Commit()

	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	r2, err := env2.OpenRelationByName("t")
	if err != nil {
		t.Fatal(err)
	}
	tx4 := env2.Begin()
	got, err := r2.Fetch(tx4, k, nil, nil)
	if err != nil || got[1].S != "b-long-update-payload!" {
		t.Fatalf("recovered: %v %v", got, err)
	}
	tx4.Commit()
}

// chainLen reads the version-chain length at key through the test
// accessor on the heap store.
func chainLen(t *testing.T, r *core.Relation, key types.Key) int {
	t.Helper()
	cl, ok := r.Storage().(interface{ VersionChainLen(types.Key) int })
	if !ok {
		t.Fatal("heap store does not expose VersionChainLen")
	}
	return cl.VersionChainLen(key)
}

// A long-running snapshot pins the pruning horizon, so repeated
// overwrites grow the record's version chain; once the reader finishes
// and the oldest snapshot advances, the next push prunes everything the
// no-longer-pinned horizon covers, bounding chain growth.
func TestVersionChainBoundedOnceSnapshotAdvances(t *testing.T) {
	env := core.NewEnv(core.Config{Log: wal.New()})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	k, err := r.Insert(tx, rec(1, "v0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	ro := env.BeginReadOnly()
	for i := 1; i <= 8; i++ {
		tx := env.Begin()
		// Same encoded length, so every overwrite stays in place and
		// stacks onto one chain.
		if _, err := r.Update(tx, k, rec(1, fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := chainLen(t, r, k); got < 8 {
		t.Fatalf("chain len %d while reader pins the horizon, want >= 8", got)
	}
	// The pinned reader still reconstructs the original version.
	if got, err := r.Fetch(ro, k, nil, nil); err != nil || got[1].S != "v0" {
		t.Fatalf("pinned snapshot reads %v %v, want v0", got, err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = env.Begin()
	if _, err := r.Update(tx, k, rec(1, "v9")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The push prunes past the newest entry every open snapshot sees; with
	// no snapshots open that is the chain head's predecessor.
	if got := chainLen(t, r, k); got > 2 {
		t.Fatalf("chain len %d after the oldest snapshot advanced, want <= 2", got)
	}
}

// A snapshot's version is rebuilt from a log record whose payload aliases
// the log's window. The record here sits in the head segment a checkpoint
// truncated into (the segment stays, the records before the checkpoint are
// out of reach), and is then left several segments behind the tail: the
// rebuilt version, and a copy of it held across all that, do not change.
func TestReconstructedVersionSurvivesTruncationAndAppends(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	r := mkHeap(t, env, "t")
	commit := func(fn func(tx *txn.Txn) error) {
		t.Helper()
		tx := env.Begin()
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var k types.Key
	commit(func(tx *txn.Txn) (err error) { k, err = r.Insert(tx, rec(1, "v0")); return })
	if err := env.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if log.Base() == 0 {
		t.Fatal("checkpoint did not truncate the log head")
	}
	commit(func(tx *txn.Txn) (err error) { _, err = r.Update(tx, k, rec(1, "v1")); return })
	ro := env.BeginReadOnly()
	commit(func(tx *txn.Txn) (err error) { _, err = r.Update(tx, k, rec(1, "v2")); return })
	held, err := r.Fetch(ro, k, nil, nil)
	if err != nil || held[1].S != "v1" {
		t.Fatalf("snapshot reads %v %v, want v1", held, err)
	}
	before := log.Len()
	filler := strings.Repeat("f", 200)
	commit(func(tx *txn.Txn) error {
		for i := int64(0); i < 1500; i++ { // ~5 log segments
			if _, err := r.Insert(tx, rec(100+i, filler)); err != nil {
				return err
			}
		}
		return nil
	})
	if log.Len() < before+1500 {
		t.Fatalf("log grew by %d records", log.Len()-before)
	}
	again, err := r.Fetch(ro, k, nil, nil)
	if err != nil || again[1].S != "v1" || held[1].S != "v1" {
		t.Fatalf("after appends the snapshot reads %v (%v), the held copy %v", again, err, held)
	}
	if n := env.Obs.MVCC.Reconstructions.Load(); n < 2 {
		t.Fatalf("%d versions rebuilt from the log, want both fetches", n)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
}

// Commit stamps survive checkpoint and restart: recovery re-derives the
// high-water from the checkpoint record and the commit records after it,
// so post-restart snapshots see all pre-crash commits and new commits
// stamp strictly above the restored high-water.
func TestStampsSurviveCheckpointRecovery(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	k, err := r.Insert(tx, rec(1, "aaaa"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := env.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = env.Begin()
	if _, err := r.Update(tx, k, rec(1, "bbbb")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	hw := env.Txns.StampHW()
	// crash

	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	// Recovery restores at least the pre-crash high-water; the
	// attachment-rebuild transaction it commits afterwards may advance it.
	if got := env2.Txns.StampHW(); got < hw {
		t.Fatalf("recovered stamp high-water %d, want >= %d", got, hw)
	}
	r2, err := env2.OpenRelationByName("t")
	if err != nil {
		t.Fatal(err)
	}
	ro := env2.BeginReadOnly()
	if got, err := r2.Fetch(ro, k, nil, nil); err != nil || got[1].S != "bbbb" {
		t.Fatalf("post-restart snapshot reads %v %v", got, err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := env2.Begin()
	if _, err := r2.Update(tx2, k, rec(1, "cccc")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := env2.Txns.StampHW(); got <= hw {
		t.Fatalf("post-restart commit stamped %d, want above restored high-water %d", got, hw)
	}
}

// Only insert placement and redo extend the page table: a lookup by a
// well-formed record key past the relation's last page is ErrNotFound
// at the storage-method level, in a snapshot too, and allocates no
// page. Readers hold the store latch shared on the strength of this.
func TestLookupNeverGrowsRelation(t *testing.T) {
	env := core.NewEnv(core.Config{Log: wal.New()})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	k, err := r.Insert(tx, rec(1, "v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	far := k.Clone()
	far[2], far[3] = 0x13, 0x88 // page 5000
	sm := r.Storage()
	pages := sm.(interface{ PageCount() int }).PageCount

	tx = env.Begin()
	if _, err := sm.FetchByKey(tx, far, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("FetchByKey: %v", err)
	}
	if _, err := sm.Update(tx, far, rec(1, "v"), rec(1, "w")); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Update: %v", err)
	}
	if err := sm.Delete(tx, far, rec(1, "v")); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Delete: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ro := env.BeginReadOnly()
	if _, err := sm.FetchByKey(ro, far, []int{}, nil); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("snapshot FetchByKey: %v", err)
	}
	ro.Commit()
	if n, pc := sm.RecordCount(), pages(); n != 1 || pc != 1 {
		t.Fatalf("after lookups of page 5000: %d records on %d pages, want 1 on 1", n, pc)
	}
}

// loadRows commits n ~100-byte rows into a fresh heap over a pool far
// smaller than the larger relations below, and returns the last key.
func loadRows(t *testing.T, n int) (*core.Env, *core.Relation, types.Key) {
	t.Helper()
	env := core.NewEnv(core.Config{PoolFrames: 16})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	var k types.Key
	for i := 0; i < n; i++ {
		var err error
		if k, err = r.Insert(tx, rec(int64(i), strings.Repeat("x", 80))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return env, r, k
}

// A row the scan rejects costs no allocation: a filtered scan that
// rejects every row allocates per scan only, never per row examined or per
// page pinned (a full pool recycles its victim frames, and its LRU is
// threaded through them).
func TestRejectedRowsAllocateNothing(t *testing.T) {
	const allocsPerPage = 0
	reject := expr.Eq(expr.Field(0), expr.Const(types.Int(-1)))
	measure := func(n int) (allocs float64, pages int) {
		env, r, _ := loadRows(t, n)
		tx := env.BeginReadOnly()
		defer tx.Commit()
		allocs = testing.AllocsPerRun(5, func() {
			sc, err := r.OpenScan(tx, core.ScanOptions{Filter: reject, Fields: []int{1}})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok, err := sc.Next(); ok || err != nil {
				t.Fatalf("rejecting scan returned a row: %v %v", ok, err)
			}
			sc.Close()
		})
		return allocs, r.Storage().(interface{ PageCount() int }).PageCount()
	}
	small, smallPages := measure(2000)
	large, largePages := measure(20000)
	if extra, bound := large-small, float64(allocsPerPage*(largePages-smallPages)); extra > bound {
		t.Fatalf("rejecting 20000 rows on %d pages: %v allocs, 2000 rows on %d pages: %v; the extra %v exceeds %d per extra page",
			largePages, large, smallPages, small, extra, allocsPerPage)
	}
}

// A heap insert through the relation allocates at most 6 times (5, and 6
// under the race detector, whose sync.Pool drops pooled log payloads): the
// record encodes into the store's reused buffer and the transaction's
// pending-version list is recycled, so what is left is the version-chain
// entry, the record key and the lock held on it (name and state).
func TestInsertAllocations(t *testing.T) {
	env := core.NewEnv(core.Config{Log: wal.New()})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	defer tx.Commit()
	row := rec(0, "x")
	id := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		id++
		row[0] = types.Int(id)
		if _, err := r.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Fatalf("heap insert allocates %v times, want <= 6", n)
	}
}

// A fetch with a field list decodes straight into the output record.
func TestProjectedFetchAllocations(t *testing.T) {
	env, r, k := loadRows(t, 100)
	tx := env.Begin()
	defer tx.Commit()
	fields := []int{0}
	if n := testing.AllocsPerRun(200, func() {
		if got, err := r.Storage().FetchByKey(tx, k, fields, nil); err != nil || got[0].AsInt() != 99 {
			t.Fatalf("fetch: %v %v", got, err)
		}
	}); n > 1 {
		t.Fatalf("FetchByKey with a field list allocates %v times, want <= 1", n)
	}
}

// A malformed scan bound is an error at OpenScan, Start as well as End —
// never a scan silently widened to the whole relation.
func TestMalformedScanBoundRejected(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	defer tx.Commit()
	if _, err := r.Insert(tx, rec(1, "v")); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []core.ScanOptions{{Start: types.Key{1, 2, 3}}, {End: types.Key{1, 2, 3}}} {
		if sc, err := r.Storage().OpenScan(tx, opts); err == nil {
			sc.Close()
			t.Errorf("OpenScan(%+v) accepted a 3-byte record key", opts)
		}
	}
}

// heapKey is the record key of slot on page.
func heapKey(page, slot uint32) types.Key {
	return binary.BigEndian.AppendUint64(nil, uint64(page)<<32|uint64(slot))
}

// TestApplyLoggedEffects replays each kind of logged change onto a fresh
// heap: redo twice, then undo. The second redo must change nothing — a
// restart that crashes mid-recovery replays the same records again — and
// undo must restore the state before the change, including an overwrite
// that only fits by moving its bytes within the page.
func TestApplyLoggedEffects(t *testing.T) {
	k1, k2 := heapKey(0, 0), heapKey(1, 0)
	tiny, long := rec(1, "tiny"), rec(1, strings.Repeat("long", 20))
	ins := func(k types.Key, r types.Record) core.ModPayload {
		return core.ModPayload{Op: core.ModInsert, Key: k, New: r}
	}
	for _, tc := range []struct {
		name          string
		prior         []core.ModPayload // redone first: the state the change meets
		change        core.ModPayload
		before, after map[string]string // payload by record key; absent = no record
	}{
		{name: "insert", change: ins(k1, tiny),
			before: map[string]string{}, after: map[string]string{string(k1): "tiny"}},
		{name: "delete", prior: []core.ModPayload{ins(k1, tiny)},
			change: core.ModPayload{Op: core.ModDelete, Key: k1, Old: tiny},
			before: map[string]string{string(k1): "tiny"}, after: map[string]string{}},
		{name: "in-place update", prior: []core.ModPayload{ins(k1, long)},
			change: core.ModPayload{Op: core.ModUpdate, Key: k1, NewKey: k1, Old: long, New: tiny},
			before: map[string]string{string(k1): long[1].S}, after: map[string]string{string(k1): "tiny"}},
		{name: "moved update", prior: []core.ModPayload{ins(k1, tiny)},
			change: core.ModPayload{Op: core.ModUpdate, Key: k1, NewKey: k2, Old: tiny, New: long},
			before: map[string]string{string(k1): "tiny"}, after: map[string]string{string(k2): long[1].S}},
		{name: "overwrite moving within the page", prior: []core.ModPayload{ins(k1, tiny)},
			change: core.ModPayload{Op: core.ModUpdate, Key: k1, NewKey: k1, Old: tiny, New: long},
			before: map[string]string{string(k1): "tiny"}, after: map[string]string{string(k1): long[1].S}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := core.NewEnv(core.Config{})
			sm := mkHeap(t, env, "t").Storage()
			apply := func(p core.ModPayload, undo bool) {
				t.Helper()
				if err := sm.ApplyLogged(0, core.AppendMod(nil, p), undo); err != nil {
					t.Fatalf("ApplyLogged(%v, undo=%v): %v", p.Op, undo, err)
				}
			}
			check := func(step string, want map[string]string) {
				t.Helper()
				tx := env.Begin()
				defer tx.Commit()
				sc, err := sm.OpenScan(tx, core.ScanOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()
				got := map[string]string{}
				for {
					k, r, ok, err := sc.Next()
					if err != nil {
						t.Fatalf("%s: scan: %v", step, err)
					}
					if !ok {
						break
					}
					got[string(k)] = r[1].S
					if f, err := sm.FetchByKey(tx, k, nil, nil); err != nil || !f.Equal(r) {
						t.Fatalf("%s: fetch %v = %v %v, scan read %v", step, k, f, err, r)
					}
				}
				if !maps.Equal(got, want) || sm.RecordCount() != len(want) {
					t.Fatalf("%s: scan read %q with RecordCount %d, want %q", step, got, sm.RecordCount(), want)
				}
				for _, k := range []types.Key{k1, k2} {
					if _, ok := want[string(k)]; ok {
						continue
					}
					if _, err := sm.FetchByKey(tx, k, nil, nil); !errors.Is(err, core.ErrNotFound) {
						t.Fatalf("%s: fetch of absent %v: %v", step, k, err)
					}
				}
			}
			for _, p := range tc.prior {
				apply(p, false)
			}
			check("before", tc.before)
			apply(tc.change, false)
			check("redo", tc.after)
			apply(tc.change, false)
			check("second redo", tc.after)
			apply(tc.change, true)
			check("undo", tc.before)
		})
	}
}
