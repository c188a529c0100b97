package core_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dmx/internal/core"
	"dmx/internal/obs"
	_ "dmx/internal/sm/memsm"
	_ "dmx/internal/sm/tempsm"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// Test attachment types registered at factory-link time (IDs outside the
// production range).
const (
	attTrace core.AttID = 20 // records every attached-procedure call; has logged state
	attVeto  core.AttID = 21 // vetoes modifications whose first field is negative
)

// traceInst demonstrates an attachment with associated storage: it keeps a
// logged count of modifications so undo must restore the count.
type traceInst struct {
	rd *core.RelDesc

	mu    sync.Mutex // concurrent transactions notify one instance
	calls []string
	count int
}

func (t *traceInst) note(call string, delta int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if call != "" {
		t.calls = append(t.calls, call)
	}
	t.count += delta
}

func (t *traceInst) log(tx *txn.Txn, delta int) error {
	op := core.ModInsert
	if delta < 0 {
		op = core.ModDelete
	}
	return core.LogAttachment(tx, t.rd, attTrace, core.EntryPayload{Op: op})
}

func (t *traceInst) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	t.note("insert", 1)
	return t.log(tx, 1)
}

func (t *traceInst) OnUpdate(tx *txn.Txn, ok, nk types.Key, o, n types.Record) error {
	t.note("update", 0)
	return nil
}

func (t *traceInst) OnDelete(tx *txn.Txn, key types.Key, old types.Record) error {
	t.note("delete", -1)
	return t.log(tx, -1)
}

func (t *traceInst) ApplyLogged(payload []byte, undo bool) error {
	p, err := core.DecodeEntry(payload)
	if err != nil {
		return err
	}
	delta := 1
	if p.Op == core.ModDelete {
		delta = -1
	}
	if undo {
		delta = -delta
	}
	t.note("", delta)
	return nil
}

func (t *traceInst) Reconfigure(*core.RelDesc) error { return nil }

type vetoInst struct{}

// vetoOpens counts Open calls, for TestAttachmentOpenIsSingleFlight.
var vetoOpens atomic.Int64

var errNegative = errors.New("first field must be non-negative")

func (vetoInst) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	if len(rec) > 0 && rec[0].AsInt() < 0 {
		return errNegative
	}
	return nil
}

func (vetoInst) OnUpdate(tx *txn.Txn, ok, nk types.Key, o, n types.Record) error {
	if len(n) > 0 && n[0].AsInt() < 0 {
		return errNegative
	}
	return nil
}

func (vetoInst) OnDelete(tx *txn.Txn, key types.Key, old types.Record) error { return nil }
func (vetoInst) ApplyLogged([]byte, bool) error                              { return nil }
func (vetoInst) Reconfigure(*core.RelDesc) error                             { return nil }

type instKey struct {
	env *core.Env
	rel uint32
}

var (
	traceMu        sync.Mutex // tests in this package run transactions concurrently
	traceInstances = map[instKey]*traceInst{}
)

func traceOf(env *core.Env, rel uint32) *traceInst {
	traceMu.Lock()
	defer traceMu.Unlock()
	return traceInstances[instKey{env, rel}]
}

func init() {
	core.RegisterAttachment(&core.AttachmentOps{
		ID: attTrace, Name: "trace",
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, prior []byte, attrs core.AttrList) ([]byte, error) {
			return []byte{1}, nil
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.AttachmentInstance, error) {
			k := instKey{env, rd.RelID}
			traceMu.Lock()
			defer traceMu.Unlock()
			if inst, ok := traceInstances[k]; ok {
				return inst, nil
			}
			inst := &traceInst{rd: rd}
			traceInstances[k] = inst
			return inst, nil
		},
	})
	core.RegisterAttachment(&core.AttachmentOps{
		ID: attVeto, Name: "veto",
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, prior []byte, attrs core.AttrList) ([]byte, error) {
			return []byte{1}, nil
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.AttachmentInstance, error) {
			vetoOpens.Add(1)
			runtime.Gosched() // let a racing opener in, if the engine allows one
			return vetoInst{}, nil
		},
	})
}

func testSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "name", Kind: types.KindString},
	)
}

func mkRel(t *testing.T, env *core.Env, name, sm string, atts ...string) *core.RelDesc {
	t.Helper()
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, name, testSchema(), sm, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range atts {
		if rd, err = env.CreateAttachment(tx, name, a, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return rd
}

func rec(id int64, name string) types.Record {
	return types.Record{types.Int(id), types.Str(name)}
}

func TestCreateInsertFetch(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "emp", "memory")
	tx := env.Begin()
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	key, err := r.Insert(tx, rec(1, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Fetch(tx, key, nil, nil)
	if err != nil || !got.Equal(rec(1, "alice")) {
		t.Fatalf("Fetch = %v, %v", got, err)
	}
	// Projection pushdown.
	got, err = r.Fetch(tx, key, []int{1}, nil)
	if err != nil || len(got) != 1 || got[0].S != "alice" {
		t.Fatalf("projected Fetch = %v, %v", got, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if r.Storage().RecordCount() != 1 {
		t.Fatal("RecordCount")
	}
}

func TestSchemaValidationRejected(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "emp", "memory")
	tx := env.Begin()
	r, _ := env.OpenRelation(rd)
	if _, err := r.Insert(tx, types.Record{types.Str("wrong"), types.Str("x")}); err == nil {
		t.Fatal("bad record accepted")
	}
	if _, err := r.Insert(tx, types.Record{types.Null(), types.Str("x")}); err == nil {
		t.Fatal("NULL in NOT NULL accepted")
	}
	tx.Commit()
}

func TestAttachedProceduresInvoked(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "traced", "memory", "trace")
	tx := env.Begin()
	r, _ := env.OpenRelation(rd)
	key, err := r.Insert(tx, rec(1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Update(tx, key, rec(1, "b")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tx, key); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	inst := traceOf(env, rd.RelID)
	want := []string{"insert", "update", "delete"}
	if len(inst.calls) != 3 {
		t.Fatalf("calls = %v", inst.calls)
	}
	for i := range want {
		if inst.calls[i] != want[i] {
			t.Fatalf("calls = %v", inst.calls)
		}
	}
	if inst.count != 0 {
		t.Fatalf("count = %d", inst.count)
	}
}

func TestVetoUndoesStorageAndPriorAttachments(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "guarded", "memory", "trace", "veto")
	tx := env.Begin()
	r, _ := env.OpenRelation(rd)

	if _, err := r.Insert(tx, rec(5, "ok")); err != nil {
		t.Fatal(err)
	}
	inst := traceOf(env, rd.RelID)
	countBefore := inst.count
	smBefore := r.Storage().RecordCount()

	// attVeto (id 21) runs after attTrace (id 20): by the time the veto
	// fires, both the storage method and the trace attachment have applied
	// effects which the common log must undo.
	_, err := r.Insert(tx, rec(-1, "bad"))
	var ve *core.VetoError
	if !errors.As(err, &ve) {
		t.Fatalf("want VetoError, got %v", err)
	}
	if ve.Extension != "veto" || !errors.Is(err, errNegative) {
		t.Fatalf("veto detail: %+v", ve)
	}
	if r.Storage().RecordCount() != smBefore {
		t.Fatal("storage method effect not undone after veto")
	}
	if inst.count != countBefore {
		t.Fatalf("attachment state not undone: %d != %d", inst.count, countBefore)
	}
	// The transaction survives the veto; prior work intact.
	if _, err := r.Insert(tx, rec(6, "also ok")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if r.Storage().RecordCount() != 2 {
		t.Fatalf("final count = %d", r.Storage().RecordCount())
	}
	if env.MetricsSnapshot().Totals.Vetoes != 1 {
		t.Fatal("veto metric")
	}
}

func TestAbortUndoesEverything(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "t", "memory", "trace")
	r, _ := env.OpenRelation(rd)

	tx := env.Begin()
	k1, _ := r.Insert(tx, rec(1, "a"))
	r.Insert(tx, rec(2, "b"))
	r.Update(tx, k1, rec(1, "a2"))
	tx.Commit()

	tx2 := env.Begin()
	r.Insert(tx2, rec(3, "c"))
	r.Delete(tx2, k1)
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if r.Storage().RecordCount() != 2 {
		t.Fatalf("count after abort = %d", r.Storage().RecordCount())
	}
	tx3 := env.Begin()
	got, err := r.Fetch(tx3, k1, nil, nil)
	if err != nil || !got.Equal(rec(1, "a2")) {
		t.Fatalf("k1 after abort = %v, %v", got, err)
	}
	if got := traceOf(env, rd.RelID).count; got != 2 {
		t.Fatalf("trace count after abort = %d", got)
	}
	tx3.Commit()
}

func TestSavepointPartialRollbackRestoresData(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "t", "memory")
	r, _ := env.OpenRelation(rd)
	tx := env.Begin()
	r.Insert(tx, rec(1, "a"))
	if _, err := tx.Savepoint("sp"); err != nil {
		t.Fatal(err)
	}
	r.Insert(tx, rec(2, "b"))
	r.Insert(tx, rec(3, "c"))
	if err := tx.RollbackTo("sp"); err != nil {
		t.Fatal(err)
	}
	if r.Storage().RecordCount() != 1 {
		t.Fatalf("count after partial rollback = %d", r.Storage().RecordCount())
	}
	r.Insert(tx, rec(4, "d"))
	tx.Commit()
	if r.Storage().RecordCount() != 2 {
		t.Fatalf("final count = %d", r.Storage().RecordCount())
	}
}

func TestScanPositionSavedAndRestoredAcrossPartialRollback(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "t", "memory")
	r, _ := env.OpenRelation(rd)
	load := env.Begin()
	for i := 1; i <= 5; i++ {
		r.Insert(load, rec(int64(i), fmt.Sprintf("r%d", i)))
	}
	load.Commit()

	tx := env.Begin()
	scan, err := r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Consume two records.
	for i := 0; i < 2; i++ {
		if _, _, ok, err := scan.Next(); !ok || err != nil {
			t.Fatalf("Next %d: %v %v", i, ok, err)
		}
	}
	// Establish a rollback point: the scan position is captured.
	tx.Savepoint("sp")
	// Consume two more.
	_, rec3, _, _ := scan.Next()
	scan.Next()
	// Partial rollback: position restored to "after record 2".
	if err := tx.RollbackTo("sp"); err != nil {
		t.Fatal(err)
	}
	_, again, ok, err := scan.Next()
	if err != nil || !ok {
		t.Fatalf("Next after restore: %v %v", ok, err)
	}
	if !again.Equal(rec3) {
		t.Fatalf("restored scan returned %v, want %v", again, rec3)
	}
	tx.Commit()
}

func TestScanDeleteAtPositionSkipsToNext(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "t", "memory")
	r, _ := env.OpenRelation(rd)
	load := env.Begin()
	for i := 1; i <= 3; i++ {
		r.Insert(load, rec(int64(i), "x"))
	}
	load.Commit()

	tx := env.Begin()
	scan, _ := r.OpenScan(tx, core.ScanOptions{})
	key1, _, _, _ := scan.Next()
	// Delete the record the scan is on: scan should be positioned just
	// after it, so Next returns record 2.
	if err := r.Delete(tx, key1); err != nil {
		t.Fatal(err)
	}
	_, r2, ok, err := scan.Next()
	if err != nil || !ok || r2[0].AsInt() != 2 {
		t.Fatalf("after delete-at-position: %v %v %v", r2, ok, err)
	}
	tx.Commit()
}

func TestScanClosedAtTxnEnd(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "t", "memory")
	r, _ := env.OpenRelation(rd)
	tx := env.Begin()
	scan, _ := r.OpenScan(tx, core.ScanOptions{})
	tx.Commit()
	if _, _, _, err := scan.Next(); err == nil {
		t.Fatal("scan should be closed at transaction termination")
	}
}

func TestRestartRecoveryReplaysCommittedAndDropsLosers(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	rd := mkRel(t, env, "t", "memory", "trace")
	r, _ := env.OpenRelation(rd)

	tx := env.Begin()
	r.Insert(tx, rec(1, "committed"))
	tx.Commit()

	loser := env.Begin()
	r.Insert(loser, rec(2, "in flight"))
	// Crash: no commit, no abort. Rebuild a fresh environment on the log.
	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	rd2, ok := env2.Cat.ByName("t")
	if !ok {
		t.Fatal("catalog not recovered")
	}
	r2, err := env2.OpenRelation(rd2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Storage().RecordCount() != 1 {
		t.Fatalf("recovered count = %d", r2.Storage().RecordCount())
	}
	if got := traceOf(env2, rd2.RelID).count; got != 1 {
		t.Fatalf("recovered attachment state = %d", got)
	}
	// The recovered relation remains fully usable.
	tx2 := env2.Begin()
	if _, err := r2.Insert(tx2, rec(3, "post-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if r2.Storage().RecordCount() != 2 {
		t.Fatalf("post-recovery count = %d", r2.Storage().RecordCount())
	}
}

func TestDDLAbortRemovesRelation(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "doomed", testSchema(), "memory", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Cat.ByName("doomed"); !ok {
		t.Fatal("relation should be visible inside creating txn")
	}
	tx.Abort()
	if _, ok := env.Cat.ByName("doomed"); ok {
		t.Fatal("aborted CREATE should remove the relation")
	}
}

func TestDropRelationDeferredUntilCommit(t *testing.T) {
	env := core.NewEnv(core.Config{})
	mkRel(t, env, "t", "memory")
	tx := env.Begin()
	if err := env.DropRelation(tx, "t"); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Cat.ByName("t"); ok {
		t.Fatal("dropped relation still visible")
	}
	// Abort: drop undone, relation back.
	tx.Abort()
	if _, ok := env.Cat.ByName("t"); !ok {
		t.Fatal("aborted DROP should restore the relation")
	}
	// Commit path releases for real.
	tx2 := env.Begin()
	env.DropRelation(tx2, "t")
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Cat.ByName("t"); ok {
		t.Fatal("relation should be gone after committed drop")
	}
}

func TestCreateAttachmentAbortRestoresDescriptor(t *testing.T) {
	env := core.NewEnv(core.Config{})
	mkRel(t, env, "t", "memory")
	tx := env.Begin()
	rd, err := env.CreateAttachment(tx, "t", "veto", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.HasAttachment(attVeto) {
		t.Fatal("attachment missing from new descriptor")
	}
	tx.Abort()
	cur, _ := env.Cat.ByName("t")
	if cur.HasAttachment(attVeto) {
		t.Fatal("aborted CREATE ATTACHMENT should restore the descriptor")
	}
	// And modifications no longer consult the attachment.
	tx2 := env.Begin()
	r, _ := env.OpenRelationByName("t")
	if _, err := r.Insert(tx2, rec(-5, "neg")); err != nil {
		t.Fatalf("veto attachment should be gone: %v", err)
	}
	tx2.Commit()
}

func TestDropAttachment(t *testing.T) {
	env := core.NewEnv(core.Config{})
	mkRel(t, env, "t", "memory", "veto")
	tx := env.Begin()
	r, _ := env.OpenRelationByName("t")
	if _, err := r.Insert(tx, rec(-1, "neg")); err == nil {
		t.Fatal("veto should fire")
	}
	if _, err := env.DropAttachment(tx, "t", "veto", nil); err != nil {
		t.Fatal(err)
	}
	r2, _ := env.OpenRelationByName("t")
	if _, err := r2.Insert(tx, rec(-1, "neg")); err != nil {
		t.Fatalf("veto should be dropped: %v", err)
	}
	tx.Commit()
}

func TestTempRelationNotRecovered(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	rd := mkRel(t, env, "scratch", "temp")
	r, _ := env.OpenRelation(rd)
	tx := env.Begin()
	r.Insert(tx, rec(1, "volatile"))
	tx.Commit()
	if r.Storage().RecordCount() != 1 {
		t.Fatal("temp insert lost")
	}

	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	rd2, ok := env2.Cat.ByName("scratch")
	if !ok {
		t.Fatal("temp relation descriptor should be recovered (DDL is logged)")
	}
	r2, _ := env2.OpenRelation(rd2)
	if r2.Storage().RecordCount() != 0 {
		t.Fatal("temp relation contents should not survive restart")
	}
}

func TestUnknownStorageMethodAndAttachment(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "x", testSchema(), "warp-drive", nil); err == nil {
		t.Fatal("unknown storage method accepted")
	}
	mkRelErr := func() error {
		_, err := env.CreateAttachment(tx, "nope", "veto", nil)
		return err
	}
	if err := mkRelErr(); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("attachment on missing relation: %v", err)
	}
	tx.Commit()
}

func TestMetricsCountCalls(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "t", "memory", "trace")
	r, _ := env.OpenRelation(rd)
	tx := env.Begin()
	for i := 0; i < 10; i++ {
		r.Insert(tx, rec(int64(i), "x"))
	}
	tx.Commit()
	if tot := env.MetricsSnapshot().Totals; tot.SMCalls != 10 || tot.AttCalls != 10 {
		t.Fatalf("metrics: %+v", tot)
	}
}

func TestMetricsSnapshotMixedWorkload(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "mix", "memory", "trace", "veto")
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	tx := env.Begin()
	var keys []types.Key
	for i := 0; i < 5; i++ {
		k, err := r.Insert(tx, rec(int64(i), "x"))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if _, err := r.Update(tx, keys[0], rec(7, "y")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tx, keys[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fetch(tx, keys[2], nil, nil); err != nil {
		t.Fatal(err)
	}
	scan, err := r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scan.Close()
	if _, err := r.Insert(tx, rec(-1, "neg")); err == nil {
		t.Fatal("veto attachment should reject negative ids")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	snap := env.MetricsSnapshot()

	findExt := func(list []obs.ExtSnapshot, name string) *obs.ExtSnapshot {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
		return nil
	}
	opCount := func(e *obs.ExtSnapshot, op string) int64 {
		for _, o := range e.Ops {
			if o.Op == op {
				return o.Count
			}
		}
		return 0
	}

	sm := findExt(snap.SM, "memory")
	if sm == nil {
		t.Fatalf("no storage-method entry for memory: %+v", snap.SM)
	}
	for op, want := range map[string]int64{
		"insert": 6, "update": 1, "delete": 1, "fetch": 1, "scan": 1,
	} {
		if got := opCount(sm, op); got != want {
			t.Errorf("memory %s count = %d, want %d", op, got, want)
		}
	}
	for _, o := range sm.Ops {
		if o.Count > 0 && o.Latency.Count != o.Count {
			t.Errorf("memory %s: latency count %d != call count %d", o.Op, o.Latency.Count, o.Count)
		}
	}

	tr := findExt(snap.Att, "trace")
	if tr == nil {
		t.Fatalf("no attachment entry for trace: %+v", snap.Att)
	}
	if got := opCount(tr, "insert"); got != 6 {
		t.Errorf("trace insert count = %d, want 6", got)
	}
	ve := findExt(snap.Att, "veto")
	if ve == nil {
		t.Fatal("no attachment entry for veto")
	}
	if ve.Vetoes != 1 {
		t.Errorf("veto vetoes = %d, want 1", ve.Vetoes)
	}

	if snap.Lock.Requests == 0 {
		t.Error("lock requests should be non-zero")
	}
	if snap.WAL.Appends == 0 || snap.WAL.AppendBytes == 0 {
		t.Error("wal appends should be non-zero")
	}
	if snap.WAL.Rollbacks == 0 {
		t.Error("veto should have driven a log rollback")
	}
	if snap.Totals.SMCalls != 8 || snap.Totals.Vetoes != 1 { // 6 inserts (one vetoed), 1 update, 1 delete
		t.Errorf("totals mismatch: %+v", snap.Totals)
	}

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"storage_methods"`, `"attachments"`, `"lock"`, `"wal"`, `"buffer"`, `"totals"`, `"memory"`, `"veto"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("snapshot JSON missing %s", want)
		}
	}
}

func TestMetricsSnapshotConcurrentSessions(t *testing.T) {
	env := core.NewEnv(core.Config{})
	const workers = 4
	rels := make([]*core.Relation, workers)
	for w := 0; w < workers; w++ {
		rd := mkRel(t, env, fmt.Sprintf("c%d", w), "memory")
		r, err := env.OpenRelation(rd)
		if err != nil {
			t.Fatal(err)
		}
		rels[w] = r
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := json.Marshal(env.MetricsSnapshot()); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				tx := env.Begin()
				if _, err := rels[w].Insert(tx, rec(int64(i), "x")); err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	snap := env.MetricsSnapshot()
	if snap.Totals.SMCalls != workers*200 {
		t.Fatalf("sm calls = %d, want %d", snap.Totals.SMCalls, workers*200)
	}
}
