package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dmx/internal/buffer"
	"dmx/internal/expr"
	"dmx/internal/fault"
	"dmx/internal/lock"
	"dmx/internal/obs"
	"dmx/internal/pagefile"
	"dmx/internal/trace"
	"dmx/internal/txn"
	"dmx/internal/wal"
)

// Config assembles an environment.
type Config struct {
	// Registry of linked-in extensions; nil means DefaultRegistry.
	Registry *Registry
	// Log is the common recovery log; nil means a fresh in-memory log.
	Log *wal.Log
	// Disk backs the shared buffer pool; nil means a fresh MemDisk.
	Disk pagefile.Disk
	// PoolFrames is the buffer pool capacity (default 256 frames).
	PoolFrames int
	// Faults, when non-nil, arms the engine's crash sites (WAL append,
	// flush and sync, buffer write-back, page-file writes) with a
	// deterministic crash-point injector for recovery testing.
	Faults *fault.Injector
	// TraceSample is the fraction of transactions that carry a detailed
	// span trace (0 disables detailed tracing; adjustable at runtime via
	// Env.Tracer.SetSampleRate).
	TraceSample float64
	// SlowThreshold enables always-on slow detection: every transaction is
	// root-traced and those at least this slow are kept in the trace ring
	// and reported to the slow-event log regardless of sampling.
	SlowThreshold time.Duration
	// SlowLog receives one structured JSON line per slow span/transaction
	// (nil: slow events are ring-kept but not written anywhere).
	SlowLog io.Writer
}

// Env is the database execution environment storage method and attachment
// extensions are embedded in: the common log, lock manager, transaction
// manager, buffer pool, predicate evaluator, catalog, and the procedure
// vectors. Env implements wal.Undoer and wal.Redoer, dispatching log
// records to the owning extension.
type Env struct {
	Reg    *Registry
	Log    *wal.Log
	Locks  *lock.Manager
	Txns   *txn.Manager
	Pool   *buffer.Pool
	Eval   *expr.Evaluator
	Cat    *Catalog
	Authz  *Authz
	Obs    *obs.Engine
	Tracer *trace.Tracer

	// Faults is the crash-point injector handed in via Config.Faults (nil
	// in production). Storage methods with their own durability-bearing
	// lifecycle transitions — e.g. the LSM method's memtable flush and
	// run compaction — consult it at their declared sites; all Injector
	// methods are nil-receiver safe.
	Faults *fault.Injector

	// NotifySkip, when non-nil, suppresses the attached-procedure
	// notification for attachment type id on the named relation. It is a
	// deliberate-mutation hook for the model-based differential harness
	// (internal/model), which uses it to prove that a dropped notify is
	// caught as a semantic divergence; production code leaves it nil.
	NotifySkip func(relName string, id AttID) bool

	mu       sync.RWMutex
	smInst   map[uint32]*smSlot
	attInst  map[attKey]*attSlot
	extState map[string]any

	// relStats holds the per-relation dispatch rollups behind
	// sys.stat_relations, keyed by relation ID.
	relStats relStatsTable

	// vetoes counts vetoed relation modifications (TotalsSnapshot.Vetoes):
	// the one total the dispatch vectors do not already hold.
	vetoes obs.Counter

	recovering    atomic.Bool // restart recovery in progress
	checkpointing atomic.Bool // guards against overlapping checkpoints

	debugMu sync.Mutex
	debug   *debugServer
}

// ExtState returns the extension-private environment state stored under
// key. Extensions use it for per-environment singletons such as foreign
// database connections.
func (env *Env) ExtState(key string) (any, bool) {
	env.mu.RLock()
	defer env.mu.RUnlock()
	v, ok := env.extState[key]
	return v, ok
}

// SetExtState stores extension-private environment state under key.
func (env *Env) SetExtState(key string, v any) {
	env.mu.Lock()
	defer env.mu.Unlock()
	env.extState[key] = v
}

type attKey struct {
	rel uint32
	att AttID
}

// smSlot and attSlot cache one extension instance each. mu makes opening
// (and, for attachments, reconfiguring) single-flight per relation and
// extension: Open may populate state from the relation's contents or hold
// connections, so a concurrent second Open whose result is discarded is
// not harmless. Readers load the published state without taking mu.
// An smSlot also holds its relation's current descriptor, which the
// catalog stores on every change, so a Relation handle reads the
// descriptor of the moment with one atomic load. Dropping the relation
// keeps the last descriptor and sets dropped, which its undo clears.
type smSlot struct {
	mu      sync.Mutex
	inst    atomic.Pointer[StorageInstance]
	rd      atomic.Pointer[RelDesc]
	dropped atomic.Bool
}

type attSlot struct {
	mu  sync.Mutex
	cur atomic.Pointer[attEntry]
}

// attEntry is immutable once published; a reconfigure publishes a new one.
type attEntry struct {
	version uint64
	inst    AttachmentInstance
}

// NewEnv builds an environment from cfg.
func NewEnv(cfg Config) *Env {
	if cfg.Registry == nil {
		cfg.Registry = DefaultRegistry
	}
	if cfg.Log == nil {
		cfg.Log = wal.New()
	}
	if cfg.Disk == nil {
		cfg.Disk = pagefile.NewMemDisk()
	}
	if cfg.PoolFrames == 0 {
		cfg.PoolFrames = 256
	}
	engine := obs.NewEngine()
	locks := lock.NewManager()
	locks.SetObs(&engine.Lock)
	cfg.Log.SetObs(&engine.WAL)
	pool := buffer.NewPool(cfg.Disk, cfg.PoolFrames)
	pool.SetObs(&engine.Buffer)
	// Write-ahead rule under the steal policy: before the pool writes a
	// dirty page back, the log is forced through the page's stamped LSN
	// (or entirely, for pages dirtied outside a stamped session).
	log := cfg.Log
	pool.SetLogForcer(func(lsn wal.LSN) error {
		if lsn == 0 {
			return log.Sync()
		}
		return log.ForceTo(lsn)
	})
	if cfg.Faults != nil {
		cfg.Log.SetFaults(cfg.Faults)
		pool.SetFaults(cfg.Faults)
		if fd, ok := cfg.Disk.(*pagefile.FileDisk); ok {
			fd.SetFaults(cfg.Faults)
		}
	}
	env := &Env{
		Reg:   cfg.Registry,
		Log:   cfg.Log,
		Locks: locks,
		Txns:  txn.NewManager(cfg.Log, locks),
		Pool:  pool,
		Eval:  expr.NewEvaluator(),
		Obs:   engine,
		Tracer: trace.New(trace.Config{
			Sample:        cfg.TraceSample,
			SlowThreshold: cfg.SlowThreshold,
			SlowLog:       cfg.SlowLog,
		}),
		Faults:   cfg.Faults,
		smInst:   make(map[uint32]*smSlot),
		attInst:  make(map[attKey]*attSlot),
		extState: make(map[string]any),
	}
	env.Cat = NewCatalog(env)
	env.Authz = newAuthz()
	env.Txns.Undoer = env
	env.Txns.SetObs(&engine.Txn)
	env.installSystemRelations()
	return env
}

// Begin starts a transaction in this environment. When tracing is
// enabled (sampling or slow detection), the transaction carries a span
// trace that every dispatch layer below records into.
func (env *Env) Begin() *txn.Txn {
	tx := env.Txns.Begin()
	if env.Tracer.Enabled() {
		tx.SetTrace(env.Tracer.StartTxn(uint64(tx.ID())))
	}
	return tx
}

// BeginReadOnly starts a snapshot read-only transaction: reads observe
// the state committed when it began, modifications are refused, and —
// for relations of MVCC storage methods — no lock-manager acquisitions
// are performed at all, so readers never contend with writers.
func (env *Env) BeginReadOnly() *txn.Txn {
	tx := env.Txns.BeginReadOnly()
	if env.Tracer.Enabled() {
		tx.SetTrace(env.Tracer.StartTxn(uint64(tx.ID())))
	}
	return tx
}

// Close releases environment-level services: the debug server (if one is
// running) is shut down and storage instances that hold resources are
// closed (a later use reopens them). The buffer pool, log, and disk are
// owned by the embedding database handle and closed there.
func (env *Env) Close() error {
	err := env.StopDebug()
	env.mu.RLock()
	slots := make([]*smSlot, 0, len(env.smInst))
	for _, s := range env.smInst {
		slots = append(slots, s)
	}
	env.mu.RUnlock()
	for _, s := range slots {
		if cerr := s.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// close releases the slot's instance if it holds resources. io.Closer is
// the capability: partitioned relations hold one connection per shard.
// Instances without it keep authoritative in-memory state and stay.
func (s *smSlot) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.inst.Load(); p != nil {
		if c, ok := (*p).(io.Closer); ok {
			s.inst.Store(nil)
			return c.Close()
		}
	}
	return nil
}

// StorageInstance returns the (cached) runtime storage instance for rd,
// opening it through the storage-method procedure vector on first use.
// Storage instances live until the relation is dropped: their in-memory
// state is authoritative between restarts (durability comes from the log).
func (env *Env) StorageInstance(rd *RelDesc) (StorageInstance, error) {
	return env.slot(rd.RelID).open(env, rd)
}

// slot returns relID's slot, creating it on first use.
func (env *Env) slot(relID uint32) *smSlot {
	env.mu.RLock()
	s := env.smInst[relID]
	env.mu.RUnlock()
	if s == nil {
		env.mu.Lock()
		if s = env.smInst[relID]; s == nil {
			s = &smSlot{}
			env.smInst[relID] = s
		}
		env.mu.Unlock()
	}
	return s
}

// open returns the slot's storage instance, opening it for rd on first use.
func (s *smSlot) open(env *Env, rd *RelDesc) (StorageInstance, error) {
	if p := s.inst.Load(); p != nil {
		return *p, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.inst.Load(); p != nil {
		return *p, nil
	}
	ops := env.Reg.StorageOps(rd.SM)
	if ops == nil {
		return nil, fmt.Errorf("core: relation %q uses unregistered storage method %d", rd.Name, rd.SM)
	}
	inst, err := ops.Open(env, rd)
	if err != nil {
		return nil, fmt.Errorf("core: open storage for %q: %w", rd.Name, err)
	}
	s.inst.Store(&inst)
	return inst, nil
}

// AttachmentInstance returns the (cached) runtime instance servicing all
// of attachment type id's instances on rd, reconfiguring it when the
// relation descriptor version has moved.
func (env *Env) AttachmentInstance(rd *RelDesc, id AttID) (AttachmentInstance, error) {
	k := attKey{rel: rd.RelID, att: id}
	env.mu.RLock()
	s := env.attInst[k]
	env.mu.RUnlock()
	if s == nil {
		env.mu.Lock()
		if s = env.attInst[k]; s == nil {
			s = &attSlot{}
			env.attInst[k] = s
		}
		env.mu.Unlock()
	}
	// Same version, or the caller holds a stale descriptor from an old
	// bound plan: the cached instance reflects current state.
	if e := s.cur.Load(); e != nil && e.version >= rd.Version {
		return e.inst, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bring(env, rd, id, false)
}

// bring opens or reconfigures the slot's instance to rd's version; s.mu is
// held. A cached version above rd's means the caller's descriptor is the
// stale one, unless exact is set: log-driven undo moves the catalog
// descriptor back to a lower version and the instance must follow.
func (s *attSlot) bring(env *Env, rd *RelDesc, id AttID, exact bool) (AttachmentInstance, error) {
	if e := s.cur.Load(); e != nil {
		if e.version == rd.Version || (e.version > rd.Version && !exact) {
			return e.inst, nil
		}
		if err := e.inst.Reconfigure(rd); err != nil {
			return nil, err
		}
		s.cur.Store(&attEntry{version: rd.Version, inst: e.inst})
		return e.inst, nil
	}
	ops := env.Reg.AttachmentOps(id)
	if ops == nil {
		return nil, fmt.Errorf("core: relation %q has unregistered attachment type %d", rd.Name, id)
	}
	inst, err := ops.Open(env, rd)
	if err != nil {
		return nil, fmt.Errorf("core: open attachment %q on %q: %w", ops.Name, rd.Name, err)
	}
	s.cur.Store(&attEntry{version: rd.Version, inst: inst})
	return inst, nil
}

// DropInstances evicts all cached instances for a dropped relation,
// closing a storage instance that holds resources.
func (env *Env) DropInstances(relID uint32) {
	env.mu.Lock()
	s := env.smInst[relID]
	delete(env.smInst, relID)
	for k := range env.attInst {
		if k.rel == relID {
			delete(env.attInst, k)
		}
	}
	env.mu.Unlock()
	if s != nil {
		s.close() // the relation is gone; a failed close has no one to report to
	}
}

// InvalidateRelation forces cached attachment instances for relID to
// reconfigure against the current catalog descriptor. The catalog calls it
// after descriptor changes, including those made by log-driven undo.
func (env *Env) InvalidateRelation(relID uint32) error {
	rd, ok := env.Cat.Get(relID)
	if !ok {
		env.DropInstances(relID)
		return nil
	}
	env.mu.Lock()
	var stale []*attSlot
	var ids []AttID
	for k, s := range env.attInst {
		if k.rel != relID {
			continue
		}
		e := s.cur.Load()
		if e == nil || e.version == rd.Version {
			continue
		}
		stale, ids = append(stale, s), append(ids, k.att)
	}
	env.mu.Unlock()
	for i, s := range stale {
		s.mu.Lock()
		_, err := s.bring(env, rd, ids[i], true)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Undo implements wal.Undoer: the common recovery log drives the storage
// method and attachment implementations to undo the effects of a logged
// modification, dispatching through the procedure vectors.
func (env *Env) Undo(txnID wal.TxnID, owner wal.Owner, payload []byte) error {
	return env.applyLogged(txnID, owner, payload, true)
}

// Redo implements wal.Redoer for restart recovery. Compensation records
// re-apply the inverse of the logged modification.
func (env *Env) Redo(txnID wal.TxnID, owner wal.Owner, payload []byte, compensation bool) error {
	return env.applyLogged(txnID, owner, payload, compensation)
}

func (env *Env) applyLogged(txnID wal.TxnID, owner wal.Owner, payload []byte, undo bool) error {
	switch owner.Class {
	case wal.OwnerSystem:
		return env.Cat.ApplySystemLogged(payload, undo)
	case wal.OwnerStorage:
		rd, ok := env.Cat.Get(owner.RelID)
		if !ok {
			return fmt.Errorf("core: log record for unknown relation %d", owner.RelID)
		}
		inst, err := env.StorageInstance(rd)
		if err != nil {
			return err
		}
		return inst.ApplyLogged(txnID, payload, undo)
	case wal.OwnerAttachment:
		rd, ok := env.Cat.Get(owner.RelID)
		if !ok {
			return fmt.Errorf("core: log record for unknown relation %d", owner.RelID)
		}
		if env.recovering.Load() {
			// During restart recovery, attachment types that can be
			// rebuilt by scanning (they provide Build) are not replayed
			// from the log: checkpoint truncation may have dropped the
			// early entry records, and replaying the survivors on top of
			// a rebuild would double-apply. Their state is reconstructed
			// from the recovered relation contents afterwards. Types
			// without Build keep their state only in the log and replay
			// as usual.
			if aops := env.Reg.AttachmentOps(AttID(owner.ExtID)); aops != nil && aops.Build != nil {
				return nil
			}
		}
		inst, err := env.AttachmentInstance(rd, AttID(owner.ExtID))
		if err != nil {
			return err
		}
		return inst.ApplyLogged(payload, undo)
	default:
		return fmt.Errorf("core: log record with unknown owner class %d", owner.Class)
	}
}

// Recover performs restart recovery over the environment's log: history
// past the last complete checkpoint is repeated in LSN order (the
// checkpoint snapshot replays first, so relation descriptors exist before
// their data records), then loser transactions are rolled back — all
// dispatched through the extension procedure vectors. Attachment state
// (indexes, aggregates, validators) is then rebuilt from the recovered
// relation contents via the attachment Build operations, since checkpoint
// truncation may have dropped the entry records that populated it.
func (env *Env) Recover() error {
	env.recovering.Store(true)
	err := env.Log.Recover(env, env)
	env.recovering.Store(false)
	if err != nil {
		return err
	}
	// Re-seed the commit-stamp sequence from the recovered log: the
	// largest stamp among surviving commit records and the checkpoint's
	// recorded high-water. Recovery rebuilt state for exactly the
	// transactions whose commit records survived, so a snapshot at this
	// high-water sees precisely the committed history — a crash between
	// a commit's force and its stamp publication leaves the transaction
	// either fully in or fully out, never half-published.
	var maxStamp uint64
	env.Log.Scan(0, func(rec wal.Record) bool {
		switch rec.Kind {
		case wal.RecCommit:
			maxStamp = max(maxStamp, wal.DecodeCommitStamp(rec.Payload))
		case wal.RecCheckpoint:
			maxStamp = max(maxStamp, wal.DecodeCheckpointStamp(rec.Payload))
		}
		return true
	})
	env.Txns.RestoreStamps(maxStamp)
	if err := env.rebuildAttachments(); err != nil {
		return err
	}
	// Storage methods that keep state outside the local environment get a
	// post-recovery hook: partitioned relations use it to resolve shards
	// left in doubt by a crash between prepare and decision delivery.
	for id := SMID(1); id < MaxStorageMethods; id++ {
		sops := env.Reg.StorageOps(id)
		if sops == nil || sops.AfterRecovery == nil {
			continue
		}
		if err := sops.AfterRecovery(env); err != nil {
			return err
		}
	}
	return nil
}

// rebuildAttachments repopulates every attachment instance from its
// relation's recovered contents, inside one committed transaction (the
// rebuilt entries are logged, so they survive the next checkpoint).
func (env *Env) rebuildAttachments() error {
	names := env.Cat.List()
	if len(names) == 0 {
		return nil
	}
	tx := env.Begin()
	for _, name := range names {
		rd, ok := env.Cat.ByName(name)
		if !ok || IsSystemRelID(rd.RelID) {
			continue
		}
		for _, attID := range rd.AttachmentTypes() {
			aops := env.Reg.AttachmentOps(attID)
			if aops == nil || aops.Build == nil {
				continue
			}
			if err := aops.Build(env, tx, rd, false); err != nil {
				tx.Abort()
				return fmt.Errorf("core: rebuild %s attachments on %s: %w", aops.Name, rd.Name, err)
			}
		}
	}
	return tx.Commit()
}
