package appendsm_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/fault"
	_ "dmx/internal/sm/appendsm"
	"dmx/internal/types"
	"dmx/internal/wal"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "title", Kind: types.KindString},
	)
}

func mkAttrs(t *testing.T, env *core.Env, attrs core.AttrList) *core.Relation {
	t.Helper()
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "pub", schema(), "append", attrs)
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, _ := env.OpenRelation(rd)
	return r
}

func mk(t *testing.T, env *core.Env) *core.Relation {
	return mkAttrs(t, env, nil)
}

// tinyLSM shapes the store so flushes and merges happen within a few
// records: ~tens of bytes per memtable, merge at two adjacent runs,
// inline compaction.
func tinyLSM() core.AttrList {
	return core.AttrList{"memtable": "64", "fanout": "2", "compact": "sync"}
}

func rec(id int64, title string) types.Record {
	return types.Record{types.Int(id), types.Str(title)}
}

// lsmIntrospect is the store's test/tooling surface beyond
// core.StorageInstance.
type lsmIntrospect interface {
	CompactNow() error
	RunCount() int
}

func scanAll(t *testing.T, env *core.Env, r *core.Relation) []types.Record {
	t.Helper()
	tx := env.Begin()
	defer tx.Commit()
	scan, err := r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	var out []types.Record
	for {
		_, g, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, g)
	}
}

func TestPublishAndRead(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mk(t, env)
	tx := env.Begin()
	keys := []types.Key{}
	for i := 0; i < 100; i++ {
		k, err := r.Insert(tx, rec(int64(i), "article"))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	tx.Commit()
	if r.Storage().RecordCount() != 100 {
		t.Fatal("count")
	}
	tx2 := env.Begin()
	got, err := r.Fetch(tx2, keys[42], nil, nil)
	if err != nil || got[0].AsInt() != 42 {
		t.Fatalf("fetch: %v %v", got, err)
	}
	// Press-order scan with filter.
	scan, _ := r.OpenScan(tx2, core.ScanOptions{
		Filter: expr.Lt(expr.Field(0), expr.Const(types.Int(5))),
	})
	n := 0
	prev := int64(-1)
	for {
		_, g, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if g[0].AsInt() <= prev {
			t.Fatal("press order violated")
		}
		prev = g[0].AsInt()
		n++
	}
	if n != 5 {
		t.Fatalf("filtered scan = %d", n)
	}
	tx2.Commit()
}

// TestConcurrentInsertUniqueKeys is the regression test for the
// duplicate-key race: the original Insert reserved its press sequence
// under the latch, released it to log, and re-locked to append, so two
// concurrent inserters could observe the same slot. Every key must be
// unique and must fetch back exactly the record inserted under it.
func TestConcurrentInsertUniqueKeys(t *testing.T) {
	// A single-P scheduler never switches goroutines inside the race
	// window; multiple OS threads time-sliced by the kernel do, even on
	// one core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	env := core.NewEnv(core.Config{})
	r := mk(t, env)

	const workers = 8
	const each = 400
	// A fat payload makes the logging step dominate each insert, so most
	// thread preemptions land inside the reserve-log-install sequence.
	pad := string(make([]byte, 512))
	type pair struct {
		key types.Key
		id  int64
	}
	got := make([][]pair, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := env.Begin()
			for i := 0; i < each; i++ {
				id := int64(w*each + i)
				k, err := r.Insert(tx, rec(id, pad))
				if err != nil {
					t.Errorf("worker %d: insert: %v", w, err)
					tx.Abort()
					return
				}
				got[w] = append(got[w], pair{key: k, id: id})
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("worker %d: commit: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if n := r.Storage().RecordCount(); n != workers*each {
		t.Fatalf("record count = %d, want %d", n, workers*each)
	}
	seen := map[string]bool{}
	tx := env.Begin()
	defer tx.Commit()
	for w := range got {
		for _, p := range got[w] {
			ks := string(p.key)
			if seen[ks] {
				t.Fatalf("duplicate key %x handed to two inserters", p.key)
			}
			seen[ks] = true
			back, err := r.Fetch(tx, p.key, nil, nil)
			if err != nil {
				t.Fatalf("fetch %x: %v", p.key, err)
			}
			if back[0].AsInt() != p.id {
				t.Fatalf("key %x: fetched id %d, inserted %d (record at wrong slot)",
					p.key, back[0].AsInt(), p.id)
			}
		}
	}
}

func TestUpdateAndDeleteAcrossFlush(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkAttrs(t, env, tinyLSM())
	tx := env.Begin()
	var keys []types.Key
	for i := 0; i < 20; i++ {
		k, err := r.Insert(tx, rec(int64(i), "v0"))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// Key 3 has long since been flushed into a run; the update masks it
	// from the memtable and the key stays stable.
	nk, err := r.Update(tx, keys[3], rec(3, "v1"))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if !nk.Equal(keys[3]) {
		t.Fatalf("update moved the key: %x -> %x", keys[3], nk)
	}
	if err := r.Delete(tx, keys[7]); err != nil {
		t.Fatalf("delete: %v", err)
	}
	tx.Commit()

	if n := r.Storage().RecordCount(); n != 19 {
		t.Fatalf("count = %d, want 19", n)
	}
	tx2 := env.Begin()
	got, err := r.Fetch(tx2, keys[3], nil, nil)
	if err != nil || got[1].S != "v1" {
		t.Fatalf("fetch updated: %v %v", got, err)
	}
	if _, err := r.Fetch(tx2, keys[7], nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted key visible: %v", err)
	}
	tx2.Commit()
	rows := scanAll(t, env, r)
	if len(rows) != 19 {
		t.Fatalf("scan = %d rows, want 19", len(rows))
	}
	for _, g := range rows {
		if g[0].AsInt() == 7 {
			t.Fatal("deleted record in scan")
		}
		if g[0].AsInt() == 3 && g[1].S != "v1" {
			t.Fatalf("scan sees stale version: %v", g)
		}
	}
}

// TestTombstoneRetiredByCompaction deletes a key whose record sits in an
// older run, then forces a full-depth merge: the key must stay invisible
// to scans and FetchByKey after the merge retires both the record and the
// tombstone.
func TestTombstoneRetiredByCompaction(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkAttrs(t, env, tinyLSM())
	tx := env.Begin()
	var keys []types.Key
	for i := 0; i < 24; i++ {
		k, err := r.Insert(tx, rec(int64(i), "article-body-padding"))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := r.Delete(tx, keys[5]); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	st := r.Storage().(lsmIntrospect)
	dropped0 := env.Obs.LSM.TombstonesDropped.Load()
	if err := st.CompactNow(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if n := st.RunCount(); n != 1 {
		t.Fatalf("major compaction left %d runs", n)
	}
	if d := env.Obs.LSM.TombstonesDropped.Load(); d <= dropped0 {
		t.Fatalf("no tombstone retired (dropped %d -> %d)", dropped0, d)
	}

	tx2 := env.Begin()
	if _, err := r.Fetch(tx2, keys[5], nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted key resurfaced after compaction: %v", err)
	}
	tx2.Commit()
	for _, g := range scanAll(t, env, r) {
		if g[0].AsInt() == 5 {
			t.Fatal("deleted record resurfaced in scan after compaction")
		}
	}
	if n := r.Storage().RecordCount(); n != 23 {
		t.Fatalf("count = %d, want 23", n)
	}
}

func TestAbortedPublishRetracts(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mk(t, env)
	tx := env.Begin()
	r.Insert(tx, rec(1, "kept"))
	tx.Commit()
	tx2 := env.Begin()
	r.Insert(tx2, rec(2, "retracted"))
	r.Insert(tx2, rec(3, "retracted"))
	tx2.Abort()
	if r.Storage().RecordCount() != 1 {
		t.Fatalf("count after abort = %d", r.Storage().RecordCount())
	}
	// Scan skips retracted presses.
	if n := len(scanAll(t, env, r)); n != 1 {
		t.Fatalf("scan after abort = %d", n)
	}
}

// TestAbortAcrossFlushMasksRuns aborts a transaction whose inserts and
// updates were already flushed into runs: the undo tombstones must mask
// the flushed versions.
func TestAbortAcrossFlushMasksRuns(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkAttrs(t, env, tinyLSM())
	tx := env.Begin()
	k, err := r.Insert(tx, rec(1, "keep-v0"))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	loser := env.Begin()
	if _, err := r.Update(loser, k, rec(1, "loser-v1")); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 30; i++ { // push the update and inserts through flushes
		if _, err := r.Insert(loser, rec(int64(i), "loser-padding-xx")); err != nil {
			t.Fatal(err)
		}
	}
	loser.Abort()

	if n := r.Storage().RecordCount(); n != 1 {
		t.Fatalf("count after abort = %d, want 1", n)
	}
	tx2 := env.Begin()
	got, err := r.Fetch(tx2, k, nil, nil)
	if err != nil || got[1].S != "keep-v0" {
		t.Fatalf("aborted update not rolled back: %v %v", got, err)
	}
	tx2.Commit()
}

func TestRecoveryReplaysPresses(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	r := mk(t, env)
	tx := env.Begin()
	for i := 0; i < 20; i++ {
		r.Insert(tx, rec(int64(i), "x"))
	}
	tx.Commit()
	loser := env.Begin()
	r.Insert(loser, rec(99, "loser"))

	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	r2, err := env2.OpenRelationByName("pub")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Storage().RecordCount() != 20 {
		t.Fatalf("recovered count = %d", r2.Storage().RecordCount())
	}
}

// TestRecoveryReplaysTombstones crashes after updates and deletes crossed
// flush and compaction boundaries; replaying the WAL into a fresh
// memtable must reproduce the exact logical state, and new inserts must
// not reuse press sequences.
func TestRecoveryReplaysTombstones(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	r := mkAttrs(t, env, tinyLSM())
	tx := env.Begin()
	var keys []types.Key
	for i := 0; i < 24; i++ {
		k, err := r.Insert(tx, rec(int64(i), "v0-padding-padding"))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if _, err := r.Update(tx, keys[2], rec(2, "v1")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tx, keys[9]); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	r2, err := env2.OpenRelationByName("pub")
	if err != nil {
		t.Fatal(err)
	}
	if n := r2.Storage().RecordCount(); n != 23 {
		t.Fatalf("recovered count = %d, want 23", n)
	}
	tx2 := env2.Begin()
	got, err := r2.Fetch(tx2, keys[2], nil, nil)
	if err != nil || got[1].S != "v1" {
		t.Fatalf("recovered update: %v %v", got, err)
	}
	if _, err := r2.Fetch(tx2, keys[9], nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("recovered delete visible: %v", err)
	}
	// Fresh ingest must continue above the recovered sequence high-water.
	nk, err := r2.Insert(tx2, rec(100, "post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if nk.Equal(k) {
			t.Fatalf("recovered store reused press key %x", nk)
		}
	}
	tx2.Commit()
}

// TestFlushAndCompactionLifecycle drives enough ingest through a tiny
// memtable that flushes and merges both happen, and checks the
// observability counters and the bounded run count.
func TestFlushAndCompactionLifecycle(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mkAttrs(t, env, tinyLSM())
	tx := env.Begin()
	for i := 0; i < 200; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "padding-padding-padding")); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()

	lsm := env.Obs.Snapshot().LSM
	if lsm.Flushes == 0 {
		t.Fatal("no memtable flush despite tiny threshold")
	}
	if lsm.Compactions == 0 {
		t.Fatal("no compaction despite fanout 2")
	}
	if lsm.MemtableBytesMax == 0 {
		t.Fatal("memtable gauge never moved")
	}
	// The tiering policy keeps the run count bounded far below the flush
	// count.
	if rc := r.Storage().(lsmIntrospect).RunCount(); int64(rc) >= lsm.Flushes {
		t.Fatalf("%d runs resident after %d flushes: compaction not bounding", rc, lsm.Flushes)
	}
	if n := r.Storage().RecordCount(); n != 200 {
		t.Fatalf("count = %d", n)
	}
	// Direct-by-key across many runs: blooms must be consulted.
	tx2 := env.Begin()
	for i := 0; i < 200; i += 17 {
		k := make(types.Key, 8)
		k[7] = byte(i) // press sequences 0..199 fit one byte
		if _, err := r.Fetch(tx2, k, nil, nil); err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
	tx2.Commit()
	if probes := env.Obs.LSM.BloomProbes.Load(); probes == 0 {
		t.Fatal("direct-by-key never consulted a bloom filter")
	}
}

func TestFaultSitesFire(t *testing.T) {
	for _, site := range fault.LSMSites() {
		inj := fault.New()
		inj.Arm(site, 1)
		env := core.NewEnv(core.Config{Faults: inj})
		r := mkAttrs(t, env, tinyLSM())
		tx := env.Begin()
		var err error
		for i := 0; i < 100 && err == nil; i++ {
			_, err = r.Insert(tx, rec(int64(i), "padding-padding-padding"))
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("site %s: ingest survived 100 inserts (err=%v)", site, err)
		}
		if !inj.Crashed() {
			t.Fatalf("site %s: never reached", site)
		}
	}
}

func TestReadAmplificationCostProfile(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := mk(t, env)
	tx := env.Begin()
	for i := 0; i < 500; i++ {
		r.Insert(tx, rec(int64(i), "padding-padding-padding"))
	}
	tx.Commit()
	// Everything is in the memtable: one source, CPU is the plain record
	// count.
	est := r.Storage().EstimateCost(core.CostRequest{})
	if !est.Usable || est.IO < 1 || est.CPU != 500 {
		t.Fatalf("single-source estimate = %+v", est)
	}

	// A store fragmented into runs must report a strictly worse profile
	// for the same logical contents.
	env2 := core.NewEnv(core.Config{})
	r2 := mkAttrs(t, env2, core.AttrList{"memtable": "64", "fanout": "100", "compact": "sync"})
	tx2 := env2.Begin()
	for i := 0; i < 500; i++ {
		r2.Insert(tx2, rec(int64(i), "padding-padding-padding"))
	}
	tx2.Commit()
	if rc := r2.Storage().(lsmIntrospect).RunCount(); rc < 2 {
		t.Fatalf("fragmentation setup failed: %d runs", rc)
	}
	est2 := r2.Storage().EstimateCost(core.CostRequest{})
	if est2.CPU <= est.CPU || est2.IO <= est.IO {
		t.Fatalf("read amplification not reported: fragmented %+v vs compact %+v", est2, est)
	}
}

func TestAttrValidation(t *testing.T) {
	env := core.NewEnv(core.Config{})
	bad := []core.AttrList{
		{"memtable": "0"},
		{"memtable": "x"},
		{"fanout": "1"},
		{"compact": "later"},
		{"bogus": "1"},
	}
	for _, attrs := range bad {
		tx := env.Begin()
		if _, err := env.CreateRelation(tx, "bad", schema(), "append", attrs); err == nil {
			t.Fatalf("attrs %v accepted", attrs)
		}
		tx.Abort()
	}
}
