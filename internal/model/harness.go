package model

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dmx/internal/att/aggmv"
	"dmx/internal/att/attutil"
	"dmx/internal/att/trigger"
	"dmx/internal/core"
	"dmx/internal/fault"
	"dmx/internal/pagefile"
	"dmx/internal/remote"
	"dmx/internal/sm/partsm"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"

	// Factory linking: the harness assembles environments directly from
	// core.NewEnv, so it links the extensions it fuzzes itself.
	_ "dmx/internal/att/btreeix"
	_ "dmx/internal/att/hashidx"
	_ "dmx/internal/sm/appendsm"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/memsm"
	_ "dmx/internal/sm/tempsm"
)

// TriggerName is the registered body of the fuzzed trigger attachment: it
// vetoes any insert or update whose val field is negative.
const TriggerName = "modelveto"

// RunConfig drives one differential run.
type RunConfig struct {
	Fleet Fleet
	Ops   []Op
	// Dir, when set, backs the environment with real log and page files
	// under a fresh subdirectory, which is what lets Crash ops restart and
	// recover. Empty runs fully in memory (Crash ops become no-ops).
	Dir string
	// NotifySkip is the deliberate-mutation hook: it is installed as
	// core.Env.NotifySkip so a test can supress one attachment's
	// notifications and prove the harness catches the divergence.
	NotifySkip func(relName string, id core.AttID) bool
}

// Divergence reports the first point where engine and model disagreed.
// OpIndex is -1 for setup failures and len(Ops) for end-of-run
// verification.
type Divergence struct {
	OpIndex int
	Op      Op
	Detail  string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("divergence at op %d (%s): %s", d.OpIndex, d.Op, d.Detail)
}

// Run replays ops through a real engine and the reference model in
// lockstep, cross-checking outcomes at every statement and full state at
// every transaction boundary. It returns the first divergence, or nil
// when engine and model agree throughout.
func Run(cfg RunConfig) *Divergence {
	r := &runner{cfg: cfg, m: NewModel(cfg.Fleet)}
	if cfg.Dir != "" {
		dir, err := os.MkdirTemp(cfg.Dir, "modelrun")
		if err != nil {
			return &Divergence{OpIndex: -1, Detail: "mkdir: " + err.Error()}
		}
		r.dir = dir
		defer os.RemoveAll(dir)
	}
	if err := r.openEnv(false); err != nil {
		return &Divergence{OpIndex: -1, Detail: "open: " + err.Error()}
	}
	defer r.closeEnv()
	if err := r.setupDDL(); err != nil {
		return &Divergence{OpIndex: -1, Detail: "setup: " + err.Error()}
	}

	for i, op := range r.cfg.Ops {
		if !r.m.Eligible(op) {
			continue
		}
		r.step(i, op)
		if r.div != nil {
			return r.div
		}
	}

	// Close a trailing snapshot and the trailing transaction (engine and
	// model together), then verify the final quiescent state.
	if r.m.SnapOpen() {
		r.step(len(r.cfg.Ops), Op{Kind: OpSnapEnd})
		if r.div != nil {
			return r.div
		}
	}
	if r.m.InTxn() {
		r.step(len(r.cfg.Ops), Op{Kind: OpAbort})
		if r.div != nil {
			return r.div
		}
	}
	var pre *Model
	if r.inj.Armed() {
		pre = r.m.Clone()
	}
	if detail := r.verify(r.m); detail != "" {
		if r.inj.Crashed() && pre != nil {
			// The still-armed crash fired during final verification: go
			// through recovery and let handleCrash re-verify.
			r.handleCrash(len(r.cfg.Ops), Op{Kind: OpCheckpoint}, pre)
		} else {
			r.div = &Divergence{OpIndex: len(r.cfg.Ops), Detail: detail}
		}
	}
	return r.div
}

type runner struct {
	cfg RunConfig
	dir string

	m    *Model
	env  *core.Env
	log  *wal.Log
	disk *pagefile.FileDisk
	inj  *fault.Injector
	tx   *txn.Txn
	roTx *txn.Txn // open snapshot (read-only) transaction, if any
	div  *Divergence
}

// openEnv assembles the environment (file-backed when the run has a
// directory) and registers the extensions that need out-of-catalog state:
// the veto trigger body and the foreign server. recover replays the log,
// which is how post-crash restarts come back.
func (r *runner) openEnv(recover bool) error {
	r.inj = fault.New()
	envCfg := core.Config{Faults: r.inj}
	if r.dir != "" {
		log, err := wal.Open(filepath.Join(r.dir, "wal.log"))
		if err != nil {
			return err
		}
		disk, err := pagefile.OpenFileDisk(filepath.Join(r.dir, "pages.db"))
		if err != nil {
			log.Close()
			return err
		}
		r.log, r.disk = log, disk
		envCfg.Log, envCfg.Disk = log, disk
	}
	r.env = core.NewEnv(envCfg)
	r.env.NotifySkip = r.cfg.NotifySkip
	trigger.Register(r.env, TriggerName, func(_ *core.Env, _ *txn.Txn, _ trigger.Event, _ *core.RelDesc, _ types.Key, _, newRec types.Record) error {
		if newRec != nil && newRec[ColVal].AsFloat() < 0 {
			return ErrTriggerVeto
		}
		return nil
	})
	partsm.AttachServer(r.env, "srv", remote.NewServer(0))
	// Partitioned fleets shard relation x across these three servers. They
	// are recreated empty on every reopen: the storage method checkpoints
	// its contents into the local log, so recovery repopulates the shards
	// from scratch and resolves any transaction left in doubt.
	for _, name := range []string{"s0", "s1", "s2"} {
		partsm.AttachServer(r.env, name, remote.NewServer(0))
	}
	if recover {
		return r.env.Recover()
	}
	return nil
}

func (r *runner) closeEnv() {
	if r.env != nil {
		r.env.Close()
	}
	if r.log != nil {
		r.log.Close()
		r.log = nil
	}
	if r.disk != nil {
		r.disk.Close()
		r.disk = nil
	}
	r.env = nil
}

var colNames = [...]string{"id", "grp", "val", "note"}

func colSpec(fields []int) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = colNames[f]
	}
	return strings.Join(parts, ",")
}

// setupDDL creates the fleet: relations first, then attachments per
// relation in def-list order so engine instance numbers line up with the
// model's list positions.
func (r *runner) setupDDL() error {
	tx := r.env.Begin()
	for _, cfg := range r.cfg.Fleet {
		attrs := core.AttrList{}
		for k, v := range cfg.SMAttrs {
			attrs[k] = v
		}
		if _, err := r.env.CreateRelation(tx, cfg.Name, FuzzSchema(), cfg.SM, attrs); err != nil {
			tx.Abort()
			return err
		}
	}
	for _, cfg := range r.cfg.Fleet {
		if err := r.createAttachments(tx, cfg); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

func (r *runner) createAttachments(tx *txn.Txn, cfg *RelCfg) error {
	create := func(attName string, attrs core.AttrList) error {
		_, err := r.env.CreateAttachment(tx, cfg.Name, attName, attrs)
		return err
	}
	for _, d := range cfg.BTree {
		if err := create("btree", core.AttrList{"name": d.Name, "on": colSpec(d.Fields)}); err != nil {
			return err
		}
	}
	for _, d := range cfg.Hash {
		if err := create("hash", core.AttrList{"name": d.Name, "on": colSpec(d.Fields)}); err != nil {
			return err
		}
	}
	for _, d := range cfg.Uniques {
		if err := create("unique", core.AttrList{"name": d.Name, "on": colSpec(d.Fields)}); err != nil {
			return err
		}
	}
	for _, a := range cfg.Aggs {
		attrs := core.AttrList{"name": a.Name, "value": colNames[a.ValueField]}
		if a.GroupField >= 0 {
			attrs["group"] = colNames[a.GroupField]
		}
		if err := create("aggregate", attrs); err != nil {
			return err
		}
	}
	if d := cfg.ChildFK; d != nil {
		attrs := core.AttrList{
			"name": d.Name, "role": "child",
			"on": colSpec(d.OwnFields), "peer": d.Peer, "peerkey": colSpec(d.PeerFields),
		}
		if d.Deferred {
			attrs["timing"] = "deferred"
		}
		if err := create("refint", attrs); err != nil {
			return err
		}
	}
	if d := cfg.ParentOf; d != nil {
		attrs := core.AttrList{
			"name": d.Name, "role": "parent",
			"on": colSpec(d.OwnFields), "peer": d.Peer, "peerkey": colSpec(d.PeerFields),
		}
		if d.Cascade {
			attrs["action"] = "cascade"
		} else {
			attrs["action"] = "restrict"
		}
		if err := create("refint", attrs); err != nil {
			return err
		}
	}
	if cfg.Trig {
		if err := create("trigger", core.AttrList{
			"name": "tg", "call": TriggerName, "events": "insert,update",
		}); err != nil {
			return err
		}
	}
	return nil
}

// step runs one eligible op on both sides and compares the outcomes. The
// model's prediction is computed by Step; the engine key of the targeted
// row must be captured before Step because a predicted-successful delete
// removes the row from the model.
func (r *runner) step(i int, op Op) {
	var pre *Model
	if r.inj.Armed() {
		// A crash can fire inside any engine call from here on; keep the
		// pre-op model so the recovered state can be matched against both
		// sides of the ambiguity.
		pre = r.m.Clone()
	}
	var targetKey types.Key
	if op.Kind == OpUpdate || op.Kind == OpDelete {
		targetKey = r.m.KeyOf(op.Rel, op.RID)
	}

	pred := r.m.Step(op)
	err := r.engineOp(op, targetKey)

	if r.inj.Crashed() {
		r.handleCrash(i, op, pre)
		return
	}
	if detail := compareOutcome(pred, err); detail != "" {
		r.div = &Divergence{OpIndex: i, Op: op, Detail: detail}
		return
	}
	if op.Kind == OpCommit || op.Kind == OpAbort {
		if detail := r.verify(r.m); detail != "" {
			if r.inj.Crashed() && pre != nil {
				r.handleCrash(i, op, pre)
				return
			}
			r.div = &Divergence{OpIndex: i, Op: op, Detail: detail}
		}
	}
}

func (r *runner) ensureTx() *txn.Txn {
	if r.tx == nil {
		r.tx = r.env.Begin()
	}
	return r.tx
}

// engineOp executes op against the real engine and returns its error.
func (r *runner) engineOp(op Op, targetKey types.Key) error {
	switch op.Kind {
	case OpInsert:
		rel, err := r.env.OpenRelationByName(op.Rel)
		if err != nil {
			return err
		}
		key, err := rel.Insert(r.ensureTx(), op.Rec.Clone())
		if err == nil {
			r.m.LearnKey(op.Rel, op.RID, key)
			return r.checkOwnWrite(rel, op.Rel, key, op.Rec)
		}
		return err
	case OpUpdate:
		rel, err := r.env.OpenRelationByName(op.Rel)
		if err != nil {
			return err
		}
		newKey, err := rel.Update(r.ensureTx(), targetKey, op.Rec.Clone())
		if err == nil {
			r.m.LearnKey(op.Rel, op.RID, newKey)
			return r.checkOwnWrite(rel, op.Rel, newKey, op.Rec)
		}
		return err
	case OpDelete:
		rel, err := r.env.OpenRelationByName(op.Rel)
		if err != nil {
			return err
		}
		return rel.Delete(r.ensureTx(), targetKey)
	case OpSavepoint:
		_, err := r.ensureTx().Savepoint(op.Name)
		return err
	case OpRollbackTo:
		return r.tx.RollbackTo(op.Name)
	case OpCommit:
		tx := r.tx
		r.tx = nil
		return tx.Commit()
	case OpAbort:
		tx := r.tx
		r.tx = nil
		return tx.Abort()
	case OpAddIndex:
		tx := r.env.Begin()
		if _, err := r.env.CreateAttachment(tx, op.Rel, op.Att, core.AttrList{"name": op.Name, "on": op.Cols}); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	case OpDropIndex:
		tx := r.env.Begin()
		if _, err := r.env.DropAttachment(tx, op.Rel, op.Att, core.AttrList{"name": op.Name}); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	case OpCheckpoint:
		if err := r.env.Checkpoint(); err != nil && err != core.ErrCheckpointBusy {
			return err
		}
		return nil
	case OpCrash:
		if r.dir != "" {
			r.inj.Arm(fault.Site(op.Site), op.Nth)
		}
		return nil
	case OpSnapBegin:
		r.roTx = r.env.BeginReadOnly()
		return nil
	case OpSnapRead:
		return r.snapRead()
	case OpSnapEnd:
		roTx := r.roTx
		r.roTx = nil
		return roTx.Commit()
	default:
		return fmt.Errorf("model: unknown op kind %v", op.Kind)
	}
}

// checkOwnWrite fetches a just-written record back inside the writing
// transaction: a transaction must see its own uncommitted writes through
// the same read path that snapshot transactions branch off.
func (r *runner) checkOwnWrite(rel *core.Relation, name string, key types.Key, want types.Record) error {
	rec, err := rel.Fetch(r.tx, key, nil, nil)
	if err != nil {
		return fmt.Errorf("own-write readback on %s key %v: %w", name, key, err)
	}
	if !rec.Equal(want) {
		return fmt.Errorf("own-write readback on %s key %v: got %s, wrote %s",
			name, key, recString(rec), recString(want))
	}
	return nil
}

// snapRead cross-checks the open snapshot transaction against the state
// the model captured when it began: a full scan must return exactly the
// captured rows (as a multiset), and each captured row must fetch back
// unchanged by its key — no matter what has committed since. Only heap-SM
// relations are checked; they are the only versioned storage method, and
// the capture in Model.snapBegin is restricted the same way.
func (r *runner) snapRead() error {
	for _, name := range r.m.Rels() {
		rows := r.m.SnapRows(name)
		if rows == nil {
			continue
		}
		rel, err := r.env.OpenRelationByName(name)
		if err != nil {
			return fmt.Errorf("snapshot read on %s: open: %w", name, err)
		}
		scan, err := rel.OpenScan(r.roTx, core.ScanOptions{})
		if err != nil {
			return fmt.Errorf("snapshot read on %s: scan open: %w", name, err)
		}
		var got []string
		for {
			_, rec, ok, err := scan.Next()
			if err != nil {
				scan.Close()
				return fmt.Errorf("snapshot read on %s: scan: %w", name, err)
			}
			if !ok {
				break
			}
			got = append(got, recString(rec))
		}
		scan.Close()
		want := make([]string, 0, len(rows))
		for _, row := range rows {
			want = append(want, recString(row.Rec))
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			return fmt.Errorf("snapshot read on %s: scan returned %d records, snapshot captured %d (%v vs %v)",
				name, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("snapshot read on %s: scan multiset differs: engine %s vs snapshot %s",
					name, got[i], want[i])
			}
		}
		for _, row := range rows {
			if row.Key == nil {
				continue
			}
			rec, err := rel.Fetch(r.roTx, row.Key, nil, nil)
			if err != nil {
				return fmt.Errorf("snapshot read on %s: fetch key %v: %w (snapshot row %s)",
					name, row.Key, err, recString(row.Rec))
			}
			if !rec.Equal(row.Rec) {
				return fmt.Errorf("snapshot read on %s: fetch key %v: engine %s vs snapshot %s",
					name, row.Key, recString(rec), recString(row.Rec))
			}
		}
	}
	return nil
}

// compareOutcome checks error/veto parity: a predicted success must
// succeed; a predicted failure must fail with the predicted sentinel and
// (for statement vetoes) name the predicted extension.
func compareOutcome(pred Outcome, err error) string {
	if pred.OK {
		if err != nil {
			return fmt.Sprintf("model predicted success, engine failed: %v", err)
		}
		return ""
	}
	if err == nil {
		return fmt.Sprintf("model predicted failure (%s: %v), engine succeeded", pred.Ext, pred.Err)
	}
	if pred.Err != nil && !errors.Is(err, pred.Err) {
		return fmt.Sprintf("model predicted %v, engine failed with %v", pred.Err, err)
	}
	if pred.Ext != "" {
		var ve *core.VetoError
		if !errors.As(err, &ve) {
			return fmt.Sprintf("model predicted veto by %q, engine error is not a veto: %v", pred.Ext, err)
		}
		if ve.Extension != pred.Ext {
			return fmt.Sprintf("model predicted veto by %q, engine veto by %q: %v", pred.Ext, ve.Extension, err)
		}
	}
	return ""
}

// handleCrash reconciles an injected crash: the environment is reopened
// from its files and recovered, and the recovered state must match one of
// the model's crash-consistent candidates — the crashed operation's
// effects fully absent, or (for a commit or self-committing DDL whose
// durability the crash made ambiguous) fully present.
func (r *runner) handleCrash(i int, op Op, pre *Model) {
	if pre == nil {
		r.div = &Divergence{OpIndex: i, Op: op, Detail: "crash fired with no armed snapshot (harness bug)"}
		return
	}
	var candidates []*Model
	switch op.Kind {
	case OpCommit:
		done := pre.Clone()
		done.Step(op)
		lost := pre.Clone()
		lost.Rollback()
		candidates = []*Model{done, lost}
	case OpAddIndex, OpDropIndex:
		done := pre.Clone()
		done.Step(op)
		candidates = []*Model{done, pre.Clone()}
	default:
		candidates = []*Model{pre.Clone()}
	}

	r.closeEnv()
	r.tx, r.roTx = nil, nil
	if err := r.openEnv(true); err != nil {
		r.div = &Divergence{OpIndex: i, Op: op, Detail: "recovery failed: " + err.Error()}
		return
	}
	var details []string
	for _, cand := range candidates {
		cand.CrashRestart()
		if detail := r.verify(cand); detail == "" {
			r.m = cand
			return
		} else {
			details = append(details, detail)
		}
	}
	r.div = &Divergence{
		OpIndex: i, Op: op,
		Detail: "recovered state matches no crash-consistent candidate: " + strings.Join(details, " | "),
	}
}

// verify compares the engine's full visible state with the model's:
// record counts, full-scan contents as multisets, every record fetched
// back by its key, every B-tree access path scanned in order against the
// model's own sort, every hash access path probed per distinct value
// tuple (plus an absent probe), and every aggregate instance looked up
// per group (plus an absent group). It returns "" on agreement.
func (r *runner) verify(m *Model) string {
	tx := r.env.Begin()
	defer func() {
		if tx != nil {
			tx.Commit()
		}
	}()
	for _, name := range m.Rels() {
		rel, err := r.env.OpenRelationByName(name)
		if err != nil {
			return name + ": open: " + err.Error()
		}
		rows := m.Rows(name)
		if got := rel.Storage().RecordCount(); got != len(rows) {
			return fmt.Sprintf("%s: record count %d, model has %d", name, got, len(rows))
		}
		if detail := r.verifyScan(tx, rel, name, rows); detail != "" {
			return detail
		}
		if detail := r.verifyFetch(tx, rel, name, rows); detail != "" {
			return detail
		}
		cfg := m.Cfg(name)
		if detail := r.verifyDefs(rel, name, cfg); detail != "" {
			return detail
		}
		if detail := r.verifyBTrees(tx, rel, name, cfg, rows); detail != "" {
			return detail
		}
		if detail := r.verifyHashes(tx, rel, name, cfg, rows); detail != "" {
			return detail
		}
		if detail := r.verifyAggs(rel, name, cfg, rows); detail != "" {
			return detail
		}
	}
	err := tx.Commit()
	tx = nil
	if err != nil {
		return "verify commit: " + err.Error()
	}
	return ""
}

func recString(rec types.Record) string { return fmt.Sprintf("%v", rec) }

func (r *runner) verifyScan(tx *txn.Txn, rel *core.Relation, name string, rows []*Row) string {
	scan, err := rel.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		return name + ": scan open: " + err.Error()
	}
	defer scan.Close()
	var got []string
	for {
		_, rec, ok, err := scan.Next()
		if err != nil {
			return name + ": scan: " + err.Error()
		}
		if !ok {
			break
		}
		got = append(got, recString(rec))
	}
	want := make([]string, 0, len(rows))
	for _, row := range rows {
		want = append(want, recString(row.Rec))
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		return fmt.Sprintf("%s: scan returned %d records, model has %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s: scan multiset differs: engine %s vs model %s", name, got[i], want[i])
		}
	}
	return ""
}

func (r *runner) verifyFetch(tx *txn.Txn, rel *core.Relation, name string, rows []*Row) string {
	for _, row := range rows {
		if row.Key == nil {
			continue
		}
		rec, err := rel.Fetch(tx, row.Key, nil, nil)
		if err != nil {
			return fmt.Sprintf("%s: fetch by key %v: %v (model row %s)", name, row.Key, err, recString(row.Rec))
		}
		if !rec.Equal(row.Rec) {
			return fmt.Sprintf("%s: fetch by key %v: engine %s vs model %s", name, row.Key, recString(rec), recString(row.Rec))
		}
	}
	return ""
}

// verifyBTrees checks each B-tree access path emits exactly the model's
// rows in entry-key order (index fields, record key appended as the
// tiebreak — the same composition the extension stores).
// verifyDefs compares the engine's descriptor def lists for the
// secondary-index attachments against the model's: same names, same
// dense order. Without this check a crash-recovery candidate whose def
// list is shorter than the engine's can match vacuously — the surviving
// index is simply never probed — and every dense instance index the
// model hands to later verifies is misaligned from then on.
func (r *runner) verifyDefs(rel *core.Relation, name string, cfg *RelCfg) string {
	for _, at := range []struct {
		id   core.AttID
		kind string
		want []IxDef
	}{
		{core.AttBTree, "btree", cfg.BTree},
		{core.AttHash, "hash", cfg.Hash},
	} {
		var got []string
		if field := rel.Desc().AttDesc[at.id]; field != nil {
			_, defs, err := attutil.DecodeDefs(field)
			if err != nil {
				return fmt.Sprintf("%s: %s defs: %v", name, at.kind, err)
			}
			for _, d := range defs {
				got = append(got, d.Name)
			}
		}
		want := make([]string, 0, len(at.want))
		for _, d := range at.want {
			want = append(want, d.Name)
		}
		if len(got) != len(want) {
			return fmt.Sprintf("%s: engine has %d %s defs %v, model has %d %v",
				name, len(got), at.kind, got, len(want), want)
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Sprintf("%s: %s def %d: engine %q, model %q",
					name, at.kind, i, got[i], want[i])
			}
		}
	}
	return ""
}

func (r *runner) verifyBTrees(tx *txn.Txn, rel *core.Relation, name string, cfg *RelCfg, rows []*Row) string {
	for inst, d := range cfg.BTree {
		type entry struct {
			sortKey string
			recKey  types.Key
			idxRec  types.Record
		}
		want := make([]entry, 0, len(rows))
		for _, row := range rows {
			want = append(want, entry{
				sortKey: string(types.EncodeKeyFields(row.Rec, d.Fields)) + string(row.Key),
				recKey:  row.Key,
				idxRec:  row.Rec.Project(d.Fields),
			})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].sortKey < want[j].sortKey })

		scan, err := rel.OpenAccessScan(tx, core.AttBTree, inst, core.ScanOptions{})
		if err != nil {
			return fmt.Sprintf("%s: btree %q open: %v", name, d.Name, err)
		}
		n := 0
		for {
			key, rec, ok, err := scan.Next()
			if err != nil {
				scan.Close()
				return fmt.Sprintf("%s: btree %q scan: %v", name, d.Name, err)
			}
			if !ok {
				break
			}
			if n >= len(want) {
				scan.Close()
				return fmt.Sprintf("%s: btree %q has extra entry %v -> %v", name, d.Name, rec, key)
			}
			w := want[n]
			if !key.Equal(w.recKey) || !rec.Equal(w.idxRec) {
				scan.Close()
				return fmt.Sprintf("%s: btree %q entry %d: engine (%v -> %v) vs model (%v -> %v)",
					name, d.Name, n, rec, key, w.idxRec, w.recKey)
			}
			n++
		}
		scan.Close()
		if n != len(want) {
			return fmt.Sprintf("%s: btree %q has %d entries, model has %d", name, d.Name, n, len(want))
		}
	}
	return ""
}

// verifyHashes probes each hash access path with every distinct value
// tuple the model holds — the returned record-key sets must match — and
// with one tuple no row carries, which must come back empty.
func (r *runner) verifyHashes(tx *txn.Txn, rel *core.Relation, name string, cfg *RelCfg, rows []*Row) string {
	for inst, d := range cfg.Hash {
		wantByTuple := make(map[string][]string)
		for _, row := range rows {
			tuple := string(types.EncodeKeyFields(row.Rec, d.Fields))
			wantByTuple[tuple] = append(wantByTuple[tuple], string(row.Key))
		}
		tuples := make([]string, 0, len(wantByTuple))
		for t := range wantByTuple {
			tuples = append(tuples, t)
		}
		sort.Strings(tuples)
		probe := func(tuple string, want []string) string {
			keys, err := rel.LookupAccess(tx, core.AttHash, inst, types.Key(tuple))
			if err != nil {
				return fmt.Sprintf("%s: hash %q lookup: %v", name, d.Name, err)
			}
			got := make([]string, 0, len(keys))
			for _, k := range keys {
				got = append(got, string(k))
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				return fmt.Sprintf("%s: hash %q returned %d keys, model has %d", name, d.Name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					return fmt.Sprintf("%s: hash %q key set differs", name, d.Name)
				}
			}
			return ""
		}
		for _, t := range tuples {
			if detail := probe(t, wantByTuple[t]); detail != "" {
				return detail
			}
		}
		absent := make([]types.Value, len(d.Fields))
		for i := range absent {
			absent[i] = types.Int(424242)
		}
		if detail := probe(string(types.EncodeKeyValues(absent...)), nil); detail != "" {
			return detail
		}
	}
	return ""
}

// verifyAggs recomputes every aggregate from the model's rows and
// compares it with the engine's incrementally maintained value, plus one
// absent-group probe that must read as empty.
func (r *runner) verifyAggs(rel *core.Relation, name string, cfg *RelCfg, rows []*Row) string {
	if len(cfg.Aggs) == 0 {
		return ""
	}
	instAny, err := rel.Env().AttachmentInstance(rel.Desc(), core.AttAggMV)
	if err != nil {
		return name + ": aggregate instance: " + err.Error()
	}
	agg := instAny.(*aggmv.Instance)
	for _, a := range cfg.Aggs {
		type acc struct {
			group types.Value
			sum   float64
			count int64
		}
		groups := make(map[string]*acc)
		var order []string
		for _, row := range rows {
			gk := ""
			gv := types.Null()
			if a.GroupField >= 0 {
				gv = row.Rec[a.GroupField]
				gk = string(types.EncodeKeyValues(gv))
			}
			g := groups[gk]
			if g == nil {
				g = &acc{group: gv}
				groups[gk] = g
				order = append(order, gk)
			}
			g.sum += row.Rec[a.ValueField].AsFloat()
			g.count++
		}
		sort.Strings(order)
		for _, gk := range order {
			g := groups[gk]
			sum, count, err := agg.Lookup(a.Name, g.group)
			if err != nil {
				return fmt.Sprintf("%s: aggregate %q lookup: %v", name, a.Name, err)
			}
			if sum != g.sum || count != g.count {
				return fmt.Sprintf("%s: aggregate %q group %v: engine (sum=%v count=%d) vs model (sum=%v count=%d)",
					name, a.Name, g.group, sum, count, g.sum, g.count)
			}
		}
		if a.GroupField >= 0 {
			if _, ok := groups[string(types.EncodeKeyValues(types.Int(424242)))]; !ok {
				sum, count, err := agg.Lookup(a.Name, types.Int(424242))
				if err != nil {
					return fmt.Sprintf("%s: aggregate %q absent probe: %v", name, a.Name, err)
				}
				if sum != 0 || count != 0 {
					return fmt.Sprintf("%s: aggregate %q absent group reads (sum=%v count=%d)", name, a.Name, sum, count)
				}
			}
		}
	}
	return ""
}
