package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dmx/internal/expr"
	"dmx/internal/lock"
	"dmx/internal/obs"
	"dmx/internal/trace"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// Relation is the runtime handle for operating on a relation through its
// descriptor. Modifications execute in the architecture's two steps: the
// storage method operation first (selected through the storage-method
// procedure vector by the descriptor's storage method identifier), then
// the attached procedures of every attachment type with instances on the
// relation, in attachment-identifier order. Any attachment can veto the
// modification, in which case the common recovery log drives the storage
// method and attachments to undo the partial effects.
//
// A handle outlives attachment DDL: every operation reads the relation's
// current descriptor (one atomic load of its runtime slot), so records
// written through a handle opened before CREATE INDEX reach the new
// index. Once the relation is dropped, a write through the handle fails;
// reads go on as before, so a snapshot reader is not failed by a DROP
// that has not committed and may still roll back.
type Relation struct {
	env  *Env
	rd   *RelDesc // as opened: the identity, name, schema and storage method, which no DDL changes
	slot *smSlot  // the current descriptor, and whether the relation is dropped
	sm   StorageInstance
	stat *RelStat // per-relation rollup (sys.stat_relations); cached to skip the table lookup per op
	mvcc bool     // storage method stamps versions: snapshot reads skip the lock manager
}

// OpenRelation returns a runtime handle for the catalog relation rd
// describes. The descriptor may come from the catalog or from a bound
// query plan; the handle operates through the catalog's current one.
func (env *Env) OpenRelation(rd *RelDesc) (*Relation, error) {
	slot := env.slot(rd.RelID)
	if slot.rd.Load() == nil || slot.dropped.Load() {
		return nil, fmt.Errorf("%w: relation %q is not in the catalog", ErrNotFound, rd.Name)
	}
	sm, err := slot.open(env, rd)
	if err != nil {
		return nil, err
	}
	_, mvcc := sm.(VersionedStorage)
	return &Relation{env: env, rd: rd, slot: slot, sm: sm, stat: env.relStats.get(rd.RelID), mvcc: mvcc}, nil
}

// writeDesc returns the descriptor a write notifies through, or an error
// once the relation is dropped. A writer reads it under its relation
// lock, which DDL (holding the relation exclusively) cannot change.
func (r *Relation) writeDesc() (*RelDesc, error) {
	if r.slot.dropped.Load() {
		return nil, fmt.Errorf("%w: relation %q was dropped", ErrNotFound, r.rd.Name)
	}
	return r.slot.rd.Load(), nil
}

// chargeWritten books n modified rows against the transaction's ledger
// and the relation rollup (a nil transaction, as in recovery, books
// neither).
func (r *Relation) chargeWritten(tx *txn.Txn, n int64) {
	if st := tx.Acct(); st != nil {
		st.RowsWritten.Add(n)
		r.stat.RowsWritten.Add(n)
	}
}

// chargeRead books n returned rows.
func (r *Relation) chargeRead(tx *txn.Txn, n int64) {
	if st := tx.Acct(); st != nil {
		st.RowsRead.Add(n)
		r.stat.RowsRead.Add(n)
	}
}

// lockFree reports whether this access can bypass the lock manager: a
// read-only snapshot transaction over version-stamped storage reads a
// consistent snapshot without any locks. Relations of non-MVCC storage
// methods keep ordinary share-locked reads even for read-only
// transactions.
func (r *Relation) lockFree(tx *txn.Txn) bool { return tx.ReadOnly() && r.mvcc }

// OpenRelationByName resolves name in the catalog and opens it.
func (env *Env) OpenRelationByName(name string) (*Relation, error) {
	rd, ok := env.Cat.ByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: relation %q", ErrNotFound, name)
	}
	return env.OpenRelation(rd)
}

// Desc returns the relation descriptor this handle operates through: the
// current one, or the last one once the relation is dropped.
func (r *Relation) Desc() *RelDesc { return r.slot.rd.Load() }

// Storage returns the underlying storage instance.
func (r *Relation) Storage() StorageInstance { return r.sm }

// Env returns the owning environment.
func (r *Relation) Env() *Env { return r.env }

// Insert stores rec, then presents the new record and its newly assigned
// record key to each attachment type with instances on the relation.
func (r *Relation) Insert(tx *txn.Txn, rec types.Record) (key types.Key, err error) {
	if tx.Trace().Detailed() {
		sp := tx.Trace().StartSpan("rel.insert", r.rd.Name, "insert")
		defer func() { sp.End(err) }()
	}
	if tx.ReadOnly() {
		return nil, txn.ErrReadOnly
	}
	if err := r.env.Authz.Check(tx, r.rd, PrivWrite); err != nil {
		return nil, err
	}
	if err := r.rd.Schema.Validate(rec); err != nil {
		return nil, err
	}
	if err := tx.Lock(lock.RelResource(r.rd.RelID), lock.ModeIX); err != nil {
		return nil, err
	}
	rd, err := r.writeDesc()
	if err != nil {
		return nil, err
	}
	mark := r.env.Log.LastLSN(tx.ID())
	d := r.begin(tx, viaSM, obs.OpInsert)
	key, err = r.sm.Insert(tx, rec)
	d.end(err)
	if err != nil {
		return nil, r.vetoed(tx, mark, r.smName(), err)
	}
	if err := tx.Lock(lock.KeyResource(r.rd.RelID, key), lock.ModeX); err != nil {
		return nil, err
	}
	if err := r.notify(tx, rd, obs.OpInsert, func(inst AttachmentInstance) error {
		return inst.OnInsert(tx, key, rec)
	}, mark); err != nil {
		return nil, err
	}
	r.chargeWritten(tx, 1)
	return key, nil
}

// Update replaces the record at key with newRec. The old record value is
// fetched and presented, with both record keys, to the attached
// procedures. The returned key is the record's (possibly new) record key.
func (r *Relation) Update(tx *txn.Txn, key types.Key, newRec types.Record) (newKey types.Key, err error) {
	if tx.Trace().Detailed() {
		sp := tx.Trace().StartSpan("rel.update", r.rd.Name, "update")
		defer func() { sp.End(err) }()
	}
	if tx.ReadOnly() {
		return nil, txn.ErrReadOnly
	}
	if err := r.env.Authz.Check(tx, r.rd, PrivWrite); err != nil {
		return nil, err
	}
	if err := r.rd.Schema.Validate(newRec); err != nil {
		return nil, err
	}
	if err := tx.Lock(lock.RelResource(r.rd.RelID), lock.ModeIX); err != nil {
		return nil, err
	}
	if err := tx.Lock(lock.KeyResource(r.rd.RelID, key), lock.ModeX); err != nil {
		return nil, err
	}
	rd, err := r.writeDesc()
	if err != nil {
		return nil, err
	}
	oldRec, err := r.sm.FetchByKey(tx, key, nil, nil)
	if err != nil {
		return nil, err
	}
	mark := r.env.Log.LastLSN(tx.ID())
	d := r.begin(tx, viaSM, obs.OpUpdate)
	newKey, err = r.sm.Update(tx, key, oldRec, newRec)
	d.end(err)
	if err != nil {
		return nil, r.vetoed(tx, mark, r.smName(), err)
	}
	if !newKey.Equal(key) {
		if err := tx.Lock(lock.KeyResource(r.rd.RelID, newKey), lock.ModeX); err != nil {
			return nil, err
		}
	}
	if err := r.notify(tx, rd, obs.OpUpdate, func(inst AttachmentInstance) error {
		return inst.OnUpdate(tx, key, newKey, oldRec, newRec)
	}, mark); err != nil {
		return nil, err
	}
	r.chargeWritten(tx, 1)
	return newKey, nil
}

// Delete removes the record at key, presenting the old record value and
// key to the attached procedures.
func (r *Relation) Delete(tx *txn.Txn, key types.Key) (err error) {
	if tx.Trace().Detailed() {
		sp := tx.Trace().StartSpan("rel.delete", r.rd.Name, "delete")
		defer func() { sp.End(err) }()
	}
	if tx.ReadOnly() {
		return txn.ErrReadOnly
	}
	if err := r.env.Authz.Check(tx, r.rd, PrivWrite); err != nil {
		return err
	}
	if err := tx.Lock(lock.RelResource(r.rd.RelID), lock.ModeIX); err != nil {
		return err
	}
	if err := tx.Lock(lock.KeyResource(r.rd.RelID, key), lock.ModeX); err != nil {
		return err
	}
	rd, err := r.writeDesc()
	if err != nil {
		return err
	}
	oldRec, err := r.sm.FetchByKey(tx, key, nil, nil)
	if err != nil {
		return err
	}
	mark := r.env.Log.LastLSN(tx.ID())
	d := r.begin(tx, viaSM, obs.OpDelete)
	err = r.sm.Delete(tx, key, oldRec)
	d.end(err)
	if err != nil {
		return r.vetoed(tx, mark, r.smName(), err)
	}
	if err := r.notify(tx, rd, obs.OpDelete, func(inst AttachmentInstance) error {
		return inst.OnDelete(tx, key, oldRec)
	}, mark); err != nil {
		return err
	}
	r.chargeWritten(tx, 1)
	return nil
}

// notify runs the attached procedures for every attachment type with
// instances on the relation, as rd describes it, in identifier order,
// vetoing on error. In a traced transaction each attached-procedure call
// is its own span; the attachment that vetoes carries the veto tag and
// reason.
func (r *Relation) notify(tx *txn.Txn, rd *RelDesc, op obs.Op, call func(AttachmentInstance) error, mark MarkLSN) error {
	for i := 1; i < MaxAttachmentTypes; i++ {
		if rd.AttDesc[i] == nil {
			continue
		}
		id := AttID(i)
		if skip := r.env.NotifySkip; skip != nil && skip(rd.Name, id) {
			continue
		}
		inst, err := r.env.AttachmentInstance(rd, id)
		if err != nil {
			return err
		}
		d := r.begin(tx, id, op)
		err = call(inst)
		d.end(err)
		if err != nil {
			return r.vetoed(tx, mark, r.env.Reg.AttachmentOps(id).Name, err)
		}
	}
	return nil
}

// dispatch is one call through a procedure vector being charged. begin and
// end are the only code that reads the clock, opens the dispatch span,
// observes the obs.Vector cell, charges the relation rollup and decides
// what counts as a failed call; every dispatch point of this file brackets
// its call with them. A value, so the pair adds no allocation per call.
type dispatch struct {
	r     *Relation
	via   AttID // the attachment type called, or viaSM
	op    obs.Op
	span  *trace.Span   // nil unless the transaction is traced in detail
	start time.Duration // obs.Clock at the call
}

// viaSM is begin's "no attachment type": the call goes through the
// storage-method vector (attachment identifiers start at 1).
const viaSM AttID = 0

func (r *Relation) begin(tx *txn.Txn, via AttID, op obs.Op) dispatch {
	d := dispatch{r: r, via: via, op: op}
	if tr := tx.Trace(); tr.Detailed() {
		layer, name := "sm.", r.smName()
		if via != viaSM {
			layer, name = "att.", fmt.Sprintf("attachment-%d", via)
			if ops := r.env.Reg.AttachmentOps(via); ops != nil {
				name = ops.Name
			}
		}
		d.span = tr.StartSpan(layer+op.String(), name, op.String())
	}
	d.start = obs.Clock()
	return d
}

// end charges the call. A fetch that finds no record, or one the
// pushed-down filter rejects, has answered the question asked: the caller
// still sees ErrNotFound or ErrFiltered, but neither is a failure of the
// storage method. An attachment failing a modification is a veto.
func (d dispatch) end(err error) {
	took := obs.Clock() - d.start
	if d.op == obs.OpFetch && (errors.Is(err, ErrNotFound) || errors.Is(err, ErrFiltered)) {
		err = nil
	}
	if d.via == viaSM {
		d.r.env.Obs.SM.Observe(int(d.r.rd.SM), d.op, took, err != nil)
		d.r.stat.observe(d.op, took, err != nil)
	} else {
		d.r.env.Obs.Att.Observe(int(d.via), d.op, took, err != nil)
		if err != nil && d.op <= obs.OpDelete {
			d.r.env.Obs.AttVetoes[d.via].Inc()
			d.span.MarkVeto()
		}
	}
	d.span.End(err)
}

// MarkLSN marks a statement-level rollback point: the transaction's last
// LSN before a relation modification began.
type MarkLSN = wal.LSN

// vetoed undoes the partial effects of the current relation modification
// through the common recovery log and wraps the veto reason.
func (r *Relation) vetoed(tx *txn.Txn, mark MarkLSN, extension string, reason error) error {
	r.env.vetoes.Inc()
	if ve, ok := reason.(*VetoError); ok {
		// A cascaded modification already vetoed and rolled back deeper
		// effects; unwind the rest back to this statement's mark.
		if err := r.env.Log.Rollback(tx.ID(), mark, r.env); err != nil {
			return fmt.Errorf("core: rollback of vetoed modification failed: %v (veto: %w)", err, ve)
		}
		return ve
	}
	if err := r.env.Log.Rollback(tx.ID(), mark, r.env); err != nil {
		return fmt.Errorf("core: rollback of vetoed modification failed: %v (veto: %w)", err, reason)
	}
	return &VetoError{Extension: extension, Reason: reason}
}

func (r *Relation) smName() string {
	if ops := r.env.Reg.StorageOps(r.rd.SM); ops != nil {
		return ops.Name
	}
	return fmt.Sprintf("storage-method-%d", r.rd.SM)
}

// Fetch is the direct-by-key access to the stored record: selected fields
// are returned after the filter is applied against the buffer-resident
// record by the storage method.
// Read-only snapshot transactions on MVCC storage skip both locks: the
// storage method answers with the version visible in the transaction's
// snapshot, so no writer coordination is needed.
func (r *Relation) Fetch(tx *txn.Txn, key types.Key, fields []int, filter *expr.Expr) (types.Record, error) {
	return r.fetch(tx, key, fields, filter, lock.ModeIS, lock.ModeS)
}

// FetchForUpdate is Fetch for a caller that will modify the record if it
// qualifies: relation IX and record X are taken before the record is read,
// so the filter is judged against the value the modification will see and
// no record lock is upgraded afterwards.
func (r *Relation) FetchForUpdate(tx *txn.Txn, key types.Key, fields []int, filter *expr.Expr) (types.Record, error) {
	if tx.ReadOnly() {
		return nil, txn.ErrReadOnly
	}
	return r.fetch(tx, key, fields, filter, lock.ModeIX, lock.ModeX)
}

func (r *Relation) fetch(tx *txn.Txn, key types.Key, fields []int, filter *expr.Expr, relMode, keyMode lock.Mode) (types.Record, error) {
	if err := r.env.Authz.Check(tx, r.rd, PrivRead); err != nil {
		return nil, err
	}
	if !r.lockFree(tx) {
		if err := tx.Lock(lock.RelResource(r.rd.RelID), relMode); err != nil {
			return nil, err
		}
		if err := tx.Lock(lock.KeyResource(r.rd.RelID, key), keyMode); err != nil {
			return nil, err
		}
	}
	d := r.begin(tx, viaSM, obs.OpFetch)
	rec, err := r.sm.FetchByKey(tx, key, fields, filter)
	d.end(err)
	if err == nil {
		r.chargeRead(tx, 1)
	}
	return rec, err
}

// LockForWrite declares, before the first read, that the transaction will
// modify records of the relation it is about to locate: SIX when it
// locates them with a key-sequential access (which reads under the
// relation lock), IX when it probes by key and locks each record itself.
// Asking for the write mode up front — never S first and IX later — is
// what keeps two writers of one relation from deadlocking on the upgrade.
func (r *Relation) LockForWrite(tx *txn.Txn, scan bool) error {
	if tx.ReadOnly() {
		return txn.ErrReadOnly
	}
	if err := r.env.Authz.Check(tx, r.rd, PrivWrite); err != nil {
		return err
	}
	mode := lock.ModeIX
	if scan {
		mode = lock.ModeSIX
	}
	return tx.Lock(lock.RelResource(r.rd.RelID), mode)
}

// OpenScan starts a key-sequential access through the storage method
// (access path zero). The scan participates in the common services: it is
// closed at transaction termination, its position is saved when a rollback
// point is established and restored after partial rollback.
func (r *Relation) OpenScan(tx *txn.Txn, opts ScanOptions) (Scan, error) {
	if err := r.env.Authz.Check(tx, r.rd, PrivRead); err != nil {
		return nil, err
	}
	if !r.lockFree(tx) {
		if err := tx.Lock(lock.RelResource(r.rd.RelID), lock.ModeS); err != nil {
			return nil, err
		}
	}
	d := r.begin(tx, viaSM, obs.OpScan)
	s, err := r.sm.OpenScan(tx, opts)
	d.end(err)
	if err != nil {
		return nil, err
	}
	return manageScan(tx, r.counted(tx, s))
}

// OpenAccessScan starts a key-sequential access through access path
// (attachment type id, instance). It returns record keys (and stored
// access-path key fields) in access-path key order; records are then
// fetched directly via the storage method (OpenAccessFetch does both).
// Access paths are unversioned, so for a read-only snapshot transaction
// the record keys they yield are filtered through the base storage's
// snapshot visibility: entries from post-snapshot or uncommitted inserts
// are dropped. (Entries a concurrent writer already removed cannot be
// resurrected from the index; a snapshot read that must see every
// qualifying historical record uses OpenScan.)
func (r *Relation) OpenAccessScan(tx *txn.Txn, id AttID, instance int, opts ScanOptions) (Scan, error) {
	s, err := r.openAccessScan(tx, id, instance, opts)
	if err != nil {
		return nil, err
	}
	if r.lockFree(tx) {
		s = &snapFilterScan{Scan: s, sm: r.sm, tx: tx}
	}
	return manageScan(tx, r.counted(tx, s))
}

// openAccessScan is OpenAccessScan before the snapshot filter and the
// transaction's scan management.
func (r *Relation) openAccessScan(tx *txn.Txn, id AttID, instance int, opts ScanOptions) (Scan, error) {
	ap, err := r.accessPath(tx, id, lock.ModeS)
	if err != nil {
		return nil, err
	}
	d := r.begin(tx, id, obs.OpScan)
	s, err := ap.OpenScan(tx, instance, opts)
	d.end(err)
	return s, err
}

// LookupAccess is the direct-by-key access through an access path: it
// returns the record keys mapped from the given access-path key.
// For read-only snapshot transactions the lookup is lock-free and the
// returned keys are filtered for snapshot visibility (see OpenAccessScan
// for the limits of unversioned access paths).
func (r *Relation) LookupAccess(tx *txn.Txn, id AttID, instance int, key types.Key) ([]types.Key, error) {
	keys, err := r.lookupAccess(tx, id, instance, key)
	if err != nil || !r.lockFree(tx) {
		return keys, err
	}
	kept := keys[:0]
	for _, k := range keys {
		vis, err := inSnapshot(r.sm, tx, k)
		if err != nil {
			return nil, err
		}
		if vis {
			kept = append(kept, k)
		}
	}
	return kept, nil
}

// lookupAccess is LookupAccess before the snapshot filter.
func (r *Relation) lookupAccess(tx *txn.Txn, id AttID, instance int, key types.Key) ([]types.Key, error) {
	ap, err := r.accessPath(tx, id, lock.ModeIS)
	if err != nil {
		return nil, err
	}
	d := r.begin(tx, id, obs.OpLookup)
	keys, err := ap.LookupByKey(tx, instance, key)
	d.end(err)
	return keys, err
}

// accessPath checks the read privilege, takes relMode on the relation
// unless the access is lock-free, and resolves access path id.
func (r *Relation) accessPath(tx *txn.Txn, id AttID, relMode lock.Mode) (AccessPath, error) {
	if err := r.env.Authz.Check(tx, r.rd, PrivRead); err != nil {
		return nil, err
	}
	if !r.lockFree(tx) {
		if err := tx.Lock(lock.RelResource(r.rd.RelID), relMode); err != nil {
			return nil, err
		}
	}
	inst, err := r.env.AttachmentInstance(r.Desc(), id)
	if err != nil {
		return nil, err
	}
	ap, ok := inst.(AccessPath)
	if !ok {
		return nil, fmt.Errorf("core: attachment type %d is not an access path", id)
	}
	return ap, nil
}

// OpenAccessFetch is index-then-fetch through access path (id, instance):
// record keys come from the path's key-sequential access over
// [opts.Start, opts.End) or, when point is set, from its direct-by-key
// lookup of opts.Start, and each record is fetched directly via the
// storage method with opts.Fields and opts.Filter (Fetch, or
// FetchForUpdate when forUpdate). Records the filter rejects are passed
// over. The returned scan yields the record keys and fetched records.
//
// A snapshot read checks each key's visibility once, in its fetch: the
// storage method answers with the snapshot's version, so "not found"
// means "not in this snapshot" and the key is passed over. It fetches
// in runs (see fetchRun). A locking read fetches, and locks, one key at
// a time; it passes over a looked-up key whose record has gone — the
// lookup holds only an intention lock on the relation — but a
// key-sequential access reads under the relation lock, so a missing
// record is an error.
func (r *Relation) OpenAccessFetch(tx *txn.Txn, id AttID, instance int, point bool, opts ScanOptions, forUpdate bool) (*AccessFetch, error) {
	f := &AccessFetch{r: r, tx: tx, fields: opts.Fields, filter: opts.Filter, relMode: lock.ModeIS, keyMode: lock.ModeS,
		skipMissing: point}
	if forUpdate {
		if tx.ReadOnly() {
			return nil, txn.ErrReadOnly
		}
		f.relMode, f.keyMode = lock.ModeIX, lock.ModeX
	}
	runLen := types.RunLen
	if point {
		keys, err := r.lookupAccess(tx, id, instance, opts.Start)
		if err != nil {
			return nil, err
		}
		f.list.keys = keys
		f.Scan = &f.list
		runLen = min(runLen, len(keys))
	} else {
		s, err := r.openAccessScan(tx, id, instance, ScanOptions{Start: opts.Start, End: opts.End, Fields: []int{}})
		if err != nil {
			return nil, err
		}
		if f.Scan, err = manageScan(tx, r.counted(tx, s)); err != nil {
			return nil, err
		}
	}
	if r.lockFree(tx) {
		f.run = fetchRun{vs: r.sm.(VersionedStorage), keys: make([]types.Key, 0, runLen), out: make([]Fetched, runLen)}
	}
	return f, nil
}

// AccessFetch is OpenAccessFetch's cursor, a Scan whose Pos, Restore and
// Close are those of its key source.
type AccessFetch struct {
	Scan             // the record keys: the access-path scan, or &list
	list             keyList
	r                *Relation
	tx               *txn.Txn
	fields           []int
	filter           *expr.Expr
	relMode, keyMode lock.Mode
	skipMissing      bool     // ErrNotFound passes the key over
	run              fetchRun // a snapshot read's, which fetches in runs
}

// Next implements Scan: the next fetched record and its key.
func (f *AccessFetch) Next() (types.Key, types.Record, bool, error) {
	if f.run.vs != nil {
		return f.nextInRun()
	}
	for {
		key, _, ok, err := f.Scan.Next()
		if err != nil || !ok {
			return nil, nil, false, err
		}
		rec, err := f.r.fetch(f.tx, key, f.fields, f.filter, f.relMode, f.keyMode)
		if errors.Is(err, ErrFiltered) || f.skipMissing && errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, nil, false, err
		}
		return key, rec, true, nil
	}
}

// fetchRun is a snapshot AccessFetch's read-ahead: the keys taken from
// the key source for one VersionedStorage.FetchRun, and its answers.
// Reading ahead is sound only for a snapshot read: it takes no locks, so
// none is held early; it stages no writes, so no key it buffered can be
// its own change; and it cannot set a savepoint (Txn.Savepoint is
// ErrReadOnly), so the key source's position, which runs ahead of the
// rows returned, is never saved or restored.
type fetchRun struct {
	vs   VersionedStorage // nil: not a snapshot read
	keys []types.Key      // the run; its capacity is the run length
	out  []Fetched        // the answers, out[i] for keys[i]
	next int              // answers served
	done bool             // the key source is exhausted
}

// nextInRun serves the buffered run, fetching the next one when it is
// spent. Not-found and filtered keys are passed over.
func (f *AccessFetch) nextInRun() (types.Key, types.Record, bool, error) {
	run := &f.run
	for {
		for run.next < len(run.keys) {
			i := run.next
			run.next++
			if run.out[i].Err == nil {
				return run.keys[i], run.out[i].Rec, true, nil
			}
		}
		if run.done {
			return nil, nil, false, nil
		}
		if err := f.fill(); err != nil {
			return nil, nil, false, err
		}
	}
}

// fill takes the next run of keys from the key source and fetches it in
// one dispatch: one privilege check, one timed storage-method call, one
// charge for the rows it returns.
func (f *AccessFetch) fill() error {
	run := &f.run
	run.keys, run.next = run.keys[:0], 0
	for len(run.keys) < cap(run.keys) {
		key, _, ok, err := f.Scan.Next()
		if err != nil {
			return err
		}
		if !ok {
			run.done = true
			break
		}
		run.keys = append(run.keys, key)
	}
	if len(run.keys) == 0 {
		run.done = true // also a lookup that found no key: a run of capacity 0
		return nil
	}
	if err := f.r.env.Authz.Check(f.tx, f.r.rd, PrivRead); err != nil {
		return err
	}
	run.out = run.out[:len(run.keys)]
	d := f.r.begin(f.tx, viaSM, obs.OpFetch)
	err := run.vs.FetchRun(f.tx, run.keys, f.fields, f.filter, run.out)
	d.end(err)
	if err != nil {
		return err
	}
	n := int64(0)
	for _, o := range run.out {
		if o.Err == nil {
			n++
		}
	}
	f.r.chargeRead(f.tx, n)
	return nil
}

// keyList is the record keys of one direct-by-key lookup as a key source.
type keyList struct {
	keys []types.Key
	next int
}

func (l *keyList) Next() (types.Key, types.Record, bool, error) {
	if l.next >= len(l.keys) {
		return nil, nil, false, nil
	}
	l.next++
	return l.keys[l.next-1], nil, true, nil
}

func (l *keyList) Pos() ScanPos { return binary.AppendUvarint(nil, uint64(l.next)) }

func (l *keyList) Restore(pos ScanPos) error {
	n, size := binary.Uvarint(pos)
	if size <= 0 || n > uint64(len(l.keys)) {
		return fmt.Errorf("core: bad key-list position %v", []byte(pos))
	}
	l.next = int(n)
	return nil
}

func (l *keyList) Close() error { return nil }

// countedScan charges each row a scan produces to the transaction's
// resource accounting and the relation's rollup.
type countedScan struct {
	Scan
	tx *txn.Txn
	r  *Relation
}

func (s *countedScan) Next() (types.Key, types.Record, bool, error) {
	key, rec, ok, err := s.Scan.Next()
	if ok && err == nil {
		s.r.chargeRead(s.tx, 1)
	}
	return key, rec, ok, err
}

// counted wraps s with per-row accounting when a transaction is present
// (internal scans pass tx == nil and stay unwrapped).
func (r *Relation) counted(tx *txn.Txn, s Scan) Scan {
	if tx == nil {
		return s
	}
	return &countedScan{Scan: s, tx: tx, r: r}
}

// snapFilterScan drops access-path entries that are not visible in the
// read-only transaction's snapshot.
type snapFilterScan struct {
	Scan
	sm StorageInstance
	tx *txn.Txn
}

func (s *snapFilterScan) Next() (types.Key, types.Record, bool, error) {
	for {
		key, rec, ok, err := s.Scan.Next()
		if err != nil || !ok {
			return key, rec, ok, err
		}
		vis, err := inSnapshot(s.sm, s.tx, key)
		if err != nil {
			return nil, nil, false, err
		}
		if vis {
			return key, rec, true, nil
		}
	}
}

// inSnapshot reports whether the record at key is in read-only tx's
// snapshot. The storage method's snapshot fetch is the one judge: a key
// the snapshot does not hold is ErrNotFound.
func inSnapshot(sm StorageInstance, tx *txn.Txn, key types.Key) (bool, error) {
	_, err := sm.FetchByKey(tx, key, []int{}, nil)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

// managedScan wires a scan into the transaction event services.
type managedScan struct {
	Scan
	closed bool
	saved  map[string]ScanPos
}

func manageScan(tx *txn.Txn, s Scan) (Scan, error) {
	ms := &managedScan{Scan: s, saved: make(map[string]ScanPos)}
	// All key-sequential accesses terminate at transaction termination
	// (locks are released there).
	if err := tx.Subscribe(txn.EventEnd, func(*txn.Txn, string) error {
		return ms.Close()
	}); err != nil {
		return nil, err
	}
	// When a rollback point is established the scan position is captured;
	// it is retained until used to restore the position after a partial
	// rollback (position changes are not logged, for performance).
	if err := tx.Subscribe(txn.EventSavepoint, func(_ *txn.Txn, name string) error {
		if !ms.closed {
			ms.saved[name] = ms.Pos()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tx.Subscribe(txn.EventPartialRollback, func(_ *txn.Txn, name string) error {
		if ms.closed {
			return nil
		}
		if pos, ok := ms.saved[name]; ok {
			return ms.Restore(pos)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return ms, nil
}

// Close is idempotent; the transaction-end subscriber may fire after an
// explicit close.
func (ms *managedScan) Close() error {
	if ms.closed {
		return nil
	}
	ms.closed = true
	return ms.Scan.Close()
}
