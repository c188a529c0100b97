// Package txn implements the transaction manager and the common event
// services of the data management extension architecture.
//
// Extensions participate in database events through two mechanisms the
// paper describes: per-transaction event listeners (used, for example, to
// close key-sequential scans at transaction termination and to save and
// restore scan positions around savepoints), and deferred action queues,
// on which an attachment instance can place an entry that causes an
// indicated procedure to be invoked with indicated data when the event
// occurs (e.g. evaluating an integrity constraint just before the
// transaction enters the prepared state, or completing a deferred
// storage-drop after commit).
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dmx/internal/lock"
	"dmx/internal/obs"
	"dmx/internal/trace"
	"dmx/internal/wal"
)

// State is a transaction's lifecycle state.
type State uint8

// Transaction states.
const (
	StateActive State = iota
	StatePreparing
	StateCommitted
	StateAborted
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateActive:
		return "ACTIVE"
	case StatePreparing:
		return "PREPARING"
	case StateCommitted:
		return "COMMITTED"
	case StateAborted:
		return "ABORTED"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Event identifies a transaction event extensions can subscribe to.
type Event uint8

// Transaction events.
const (
	// EventBeforePrepare fires after all modifications, before the
	// transaction enters the prepared state. Deferred integrity
	// constraints run here and may still veto (abort) the transaction.
	EventBeforePrepare Event = iota
	// EventCommit fires once the commit record is durable. Deferred
	// destructive actions (e.g. releasing dropped storage) run here.
	EventCommit
	// EventAbort fires when the transaction aborts, after rollback.
	EventAbort
	// EventEnd fires at transaction termination: commit, abort, or a
	// commit that could not be made durable. All key-sequential accesses
	// must be closed here because locks are released at termination.
	EventEnd
	// EventSavepoint fires when a rollback point is established; storage
	// methods and attachments save their key-sequential access positions.
	EventSavepoint
	// EventPartialRollback fires after a partial rollback completes;
	// saved scan positions are restored.
	EventPartialRollback
	numEvents
)

// String returns the event name.
func (e Event) String() string {
	switch e {
	case EventBeforePrepare:
		return "BEFORE_PREPARE"
	case EventCommit:
		return "COMMIT"
	case EventAbort:
		return "ABORT"
	case EventEnd:
		return "END"
	case EventSavepoint:
		return "SAVEPOINT"
	case EventPartialRollback:
		return "PARTIAL_ROLLBACK"
	default:
		return fmt.Sprintf("Event(%d)", uint8(e))
	}
}

// Action is a deferred action queue entry: the procedure to invoke when the
// event occurs. The transaction and the savepoint name (for savepoint
// events; otherwise empty) are passed in.
type Action func(tx *Txn, savepoint string) error

// ErrNotActive is returned for operations on finished transactions.
var ErrNotActive = errors.New("txn: transaction is not active")

// ErrUnknownSavepoint is returned by RollbackTo for undefined names.
var ErrUnknownSavepoint = errors.New("txn: unknown savepoint")

// ErrReadOnly is returned when a read-only transaction attempts a
// modification (logging a change, or establishing a savepoint, which
// writes a log record).
var ErrReadOnly = errors.New("txn: read-only transaction")

// FrozenStamp is the commit stamp of versions whose creating transaction
// predates stamp tracking (e.g. state reconstructed by recovery, or
// version chains frozen by a checkpoint). It is below every stamp the
// manager assigns, so frozen versions are visible to every snapshot.
const FrozenStamp uint64 = 1

// Snapshot is the consistent view handed to a read-only transaction: the
// committed-stamp high-water at begin time. Every stamp at or below it
// belongs to a transaction that was durably committed and fully
// version-stamped before the snapshot was taken, while in-flight writers
// either carry no stamp yet or will receive one above HW.
type Snapshot struct {
	HW uint64
}

// Visible reports whether a version carrying the given commit stamp is
// part of this snapshot. Stamp 0 marks an uncommitted version and is
// never visible.
func (s *Snapshot) Visible(stamp uint64) bool {
	return stamp != 0 && stamp <= s.HW
}

// Manager creates and tracks transactions. It owns the ID sequence and
// wires transactions to the common log, lock manager, and undo dispatcher.
type Manager struct {
	mu     sync.Mutex
	nextID wal.TxnID
	active map[wal.TxnID]*Txn

	Log   *wal.Log
	Locks *lock.Manager
	// Undoer dispatches log-driven undo to the owning extension. It is set
	// by the extension registry once the procedure vectors are built.
	Undoer wal.Undoer
	// OnEnd, when set, runs after every transaction finishes (commit or
	// abort), outside all manager and transaction locks. The engine uses
	// it to trigger periodic log checkpoints.
	OnEnd func()

	// Commit-stamp state for MVCC snapshot reads. Stamps are assigned
	// densely, in commit-record order, under stampMu held across the
	// commit append; the high-water advances in stamp order only after
	// the owning transaction has stamped its version chains, so a
	// snapshot at HW=s never misses data from any stamp <= s.
	stampMu   sync.Mutex
	nextStamp uint64               // next stamp to assign (starts above FrozenStamp)
	stampHW   uint64               // all stamps <= stampHW are durable and fully stamped
	pending   map[uint64]bool      // assigned stamps above stampHW; true = ready to publish
	snaps     map[wal.TxnID]uint64 // open read-only snapshots: txn ID -> snapshot HW

	// history retains the ledgers of recently-finished transactions for
	// sys.stat_history; obs rolls lifecycle totals into the engine
	// metrics registry (nil until SetObs).
	history txnHistory
	obs     *obs.TxnStats
}

// NewManager returns a manager over the given log and lock manager.
func NewManager(log *wal.Log, locks *lock.Manager) *Manager {
	m := &Manager{
		nextID:    1,
		active:    make(map[wal.TxnID]*Txn),
		Log:       log,
		Locks:     locks,
		nextStamp: FrozenStamp + 1,
		stampHW:   FrozenStamp,
		pending:   make(map[uint64]bool),
		snaps:     make(map[wal.TxnID]uint64),
	}
	if locks != nil {
		locks.SetWaitSink(m.chargeLockWait)
	}
	return m
}

// Begin starts a new transaction.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := &Txn{id: m.nextID, mgr: m, state: StateActive, start: time.Now()}
	m.nextID++
	m.active[tx.id] = tx
	return tx
}

// BeginReadOnly starts a read-only transaction bound to a consistent
// snapshot of the committed state. Snapshot transactions never touch the
// lock manager or the log: reads are answered from stamped record
// versions, writes are refused with ErrReadOnly, and commit/abort are
// local events.
func (m *Manager) BeginReadOnly() *Txn {
	m.mu.Lock()
	tx := &Txn{id: m.nextID, mgr: m, state: StateActive, start: time.Now(), readOnly: true}
	m.nextID++
	m.active[tx.id] = tx
	m.mu.Unlock()

	m.stampMu.Lock()
	tx.snap.HW = m.stampHW
	m.snaps[tx.id] = tx.snap.HW
	m.stampMu.Unlock()
	return tx
}

// StampHW returns the current committed-stamp high-water: every stamp at
// or below it is durably committed and fully version-stamped.
func (m *Manager) StampHW() uint64 {
	m.stampMu.Lock()
	defer m.stampMu.Unlock()
	return m.stampHW
}

// ActiveReadOnly returns the number of open read-only snapshots.
func (m *Manager) ActiveReadOnly() int {
	m.stampMu.Lock()
	defer m.stampMu.Unlock()
	return len(m.snaps)
}

// OldestSnapshotHW returns the smallest high-water among open snapshots,
// or the current high-water when none are open. Version chains only need
// to retain versions a snapshot at that high-water could still ask for,
// so storage methods use this as their pruning horizon.
func (m *Manager) OldestSnapshotHW() uint64 {
	m.stampMu.Lock()
	defer m.stampMu.Unlock()
	oldest := m.stampHW
	for _, hw := range m.snaps {
		if hw < oldest {
			oldest = hw
		}
	}
	return oldest
}

// RestoreStamps re-seeds the stamp sequence after restart recovery: the
// high-water becomes the largest stamp found in the recovered log (commit
// records and the checkpoint high-water), and the next stamp follows it.
// Recovery rebuilds page state for exactly the transactions whose commit
// records survived, so a post-restart snapshot at this high-water sees
// precisely those — a transaction that crashed between its commit force
// and its stamp publication is either fully in (record durable) or fully
// out (record lost), never half-published.
func (m *Manager) RestoreStamps(maxStamp uint64) {
	m.stampMu.Lock()
	defer m.stampMu.Unlock()
	if maxStamp > m.stampHW {
		m.stampHW = maxStamp
	}
	if m.stampHW >= m.nextStamp {
		m.nextStamp = m.stampHW + 1
	}
}

// publishStamp marks stamp as ready (its owner's version chains are
// stamped, or the owner is dead and its chains will be undone) and
// advances the high-water over every consecutive ready stamp.
func (m *Manager) publishStamp(stamp uint64) {
	if stamp == 0 {
		return
	}
	m.stampMu.Lock()
	m.pending[stamp] = true
	for m.pending[m.stampHW+1] {
		delete(m.pending, m.stampHW+1)
		m.stampHW++
	}
	m.stampMu.Unlock()
}

// ActiveIDs returns the IDs of all unfinished transactions (the
// active-transaction table a checkpoint records).
func (m *Manager) ActiveIDs() []wal.TxnID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wal.TxnID, 0, len(m.active))
	for id := range m.active {
		out = append(out, id)
	}
	return out
}

// ActiveCount returns the number of unfinished transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

func (m *Manager) finish(tx *Txn, outcome string) {
	m.mu.Lock()
	delete(m.active, tx.id)
	m.mu.Unlock()
	if tx.readOnly {
		m.stampMu.Lock()
		delete(m.snaps, tx.id)
		m.stampMu.Unlock()
	}
	m.recordFinished(tx, outcome)
}

// subscription is one persistent listener: action runs each time event
// fires.
type subscription struct {
	event  Event
	action Action
}

// Txn is a transaction. A Txn is confined to one goroutine.
type Txn struct {
	id         wal.TxnID
	mgr        *Manager
	state      State
	savepoints map[string]wal.LSN
	deferred   [numEvents][]Action
	subs       []subscription
	subsInline [4]subscription // subs' first array: a short transaction's subscribing allocates nothing
	stash      map[string]any
	user       string
	tr         *trace.TxnTrace

	readOnly    bool
	snap        Snapshot // a read-only transaction's; unused by writers
	commitStamp uint64

	start time.Time
	stats Stats
}

// ReadOnly reports whether tx is a snapshot read-only transaction.
// Nil-safe: maintenance paths (recovery, checkpoint snapshot scans) run
// with no transaction and behave as writers.
func (tx *Txn) ReadOnly() bool { return tx != nil && tx.readOnly }

// Snapshot returns the read-only transaction's snapshot; nil for writers
// and on a nil receiver.
func (tx *Txn) Snapshot() *Snapshot {
	if !tx.ReadOnly() {
		return nil
	}
	return &tx.snap
}

// CommitStamp returns the commit stamp assigned to this transaction: 0
// until the commit record has been appended, and always 0 for read-only
// transactions. Storage methods read it from EventCommit subscribers to
// stamp the record versions the transaction created.
func (tx *Txn) CommitStamp() uint64 { return tx.commitStamp }

// SetTrace attaches a span trace to the transaction. The trace shares the
// transaction's goroutine confinement; nil (tracing off) is fine.
func (tx *Txn) SetTrace(t *trace.TxnTrace) { tx.tr = t }

// Trace returns the transaction's span trace. The receiver and the result
// may both be nil and every trace method is nil-safe, so callers use it
// unconditionally (recovery and maintenance paths run with no transaction).
func (tx *Txn) Trace() *trace.TxnTrace {
	if tx == nil {
		return nil
	}
	return tx.tr
}

// SetUser attaches a user identity for the uniform authorization facility.
func (tx *Txn) SetUser(user string) { tx.user = user }

// User returns the transaction's user identity ("" if unset).
func (tx *Txn) User() string { return tx.user }

// ID returns the transaction identifier.
func (tx *Txn) ID() wal.TxnID { return tx.id }

// State returns the lifecycle state.
func (tx *Txn) State() State { return tx.state }

// Manager returns the owning manager.
func (tx *Txn) Manager() *Manager { return tx.mgr }

// Log exposes the common log for extension logging.
func (tx *Txn) Log() *wal.Log { return tx.mgr.Log }

// Lock acquires mode on res on behalf of this transaction, held to
// transaction end.
func (tx *Txn) Lock(res lock.Resource, mode lock.Mode) error {
	if tx.state != StateActive && tx.state != StatePreparing {
		return ErrNotActive
	}
	if !tx.tr.Detailed() {
		return tx.mgr.Locks.Acquire(tx.id, res, mode)
	}
	// Traced: an uncontended grant stays below the floor and records
	// nothing; a real wait (or a deadlock refusal) becomes a span.
	start := time.Now()
	err := tx.mgr.Locks.Acquire(tx.id, res, mode)
	if d := time.Since(start); d >= trace.LockWaitFloor || err != nil {
		tx.tr.Event("lock.wait", res.String(), mode.String(), start, d, err)
	}
	return err
}

// Defer places an entry on the deferred action queue for event. Entries
// run in registration order when the event fires. Multiple entries per
// event are allowed; extensions typically deduplicate via the Stash.
func (tx *Txn) Defer(event Event, action Action) error {
	if tx.state != StateActive && tx.state != StatePreparing {
		return ErrNotActive
	}
	tx.deferred[event] = append(tx.deferred[event], action)
	return nil
}

// Subscribe registers a persistent listener for event: unlike Defer
// entries, subscribers fire every time the event occurs for the rest of
// the transaction. Storage methods and attachments subscribe to savepoint,
// partial-rollback, and end events to manage their key-sequential access
// positions. A transaction's first four subscriptions allocate nothing.
func (tx *Txn) Subscribe(event Event, action Action) error {
	if tx.state != StateActive && tx.state != StatePreparing {
		return ErrNotActive
	}
	if tx.subs == nil {
		tx.subs = tx.subsInline[:0]
	}
	tx.subs = append(tx.subs, subscription{event, action})
	return nil
}

// Stash returns this transaction's extension-private state map. Extensions
// key it by their own names (e.g. to accumulate deferred constraint checks
// or open scans across calls).
func (tx *Txn) Stash() map[string]any {
	if tx.stash == nil {
		tx.stash = make(map[string]any)
	}
	return tx.stash
}

// AppendLog writes an update record on behalf of an extension and returns
// its LSN.
func (tx *Txn) AppendLog(owner wal.Owner, payload []byte) (wal.LSN, error) {
	if tx.state != StateActive && tx.state != StatePreparing {
		return 0, ErrNotActive
	}
	if tx.readOnly {
		return 0, ErrReadOnly
	}
	if st := tx.Acct(); st != nil {
		st.WALRecords.Add(1)
		st.WALBytes.Add(int64(len(payload)))
	}
	if !tx.tr.Detailed() {
		return tx.mgr.Log.Append(tx.id, wal.RecUpdate, owner, payload)
	}
	start := time.Now()
	lsn, err := tx.mgr.Log.Append(tx.id, wal.RecUpdate, owner, payload)
	tx.tr.Event("wal.append", "", "append", start, time.Since(start), err)
	return lsn, err
}

// Savepoint establishes a named rollback point, fires EventSavepoint so
// storage methods and attachments can save their key-sequential access
// positions, and returns the savepoint LSN. Re-using a name moves it.
func (tx *Txn) Savepoint(name string) (wal.LSN, error) {
	if tx.state != StateActive {
		return 0, ErrNotActive
	}
	if tx.readOnly {
		return 0, ErrReadOnly
	}
	lsn, err := tx.mgr.Log.Append(tx.id, wal.RecSavepoint, wal.Owner{}, []byte(name))
	if err != nil {
		return 0, err
	}
	if tx.savepoints == nil {
		tx.savepoints = make(map[string]wal.LSN)
	}
	tx.savepoints[name] = lsn
	if err := tx.fire(EventSavepoint, name); err != nil {
		return 0, err
	}
	return lsn, nil
}

// RollbackTo partially rolls the transaction back to the named savepoint:
// the common log drives the storage-method and attachment undo routines,
// then EventPartialRollback fires so saved scan positions are restored.
// The savepoint remains valid and can be rolled back to again.
func (tx *Txn) RollbackTo(name string) error {
	if tx.state != StateActive {
		return ErrNotActive
	}
	lsn, ok := tx.savepoints[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSavepoint, name)
	}
	if err := tx.mgr.Log.Rollback(tx.id, lsn, tx.mgr.Undoer); err != nil {
		return err
	}
	// Savepoints established after the target are gone.
	for n, l := range tx.savepoints {
		if l > lsn {
			delete(tx.savepoints, n)
		}
	}
	return tx.fire(EventPartialRollback, name)
}

// Commit drives the commit pipeline: deferred before-prepare actions run
// first (deferred constraints may veto, turning the commit into an abort,
// in which case Commit returns the veto error); then the commit record is
// written, deferred commit actions run, locks are released, and
// end-of-transaction notifications fire.
func (tx *Txn) Commit() error {
	if tx.state != StateActive {
		return ErrNotActive
	}
	if tx.readOnly {
		return tx.finishReadOnly(StateCommitted, "committed")
	}
	tx.state = StatePreparing
	if err := tx.fire(EventBeforePrepare, ""); err != nil {
		tx.state = StateActive
		if aerr := tx.Abort(); aerr != nil {
			return fmt.Errorf("txn: abort after veto failed: %v (veto: %w)", aerr, err)
		}
		return err
	}
	// The commit stamp is assigned under stampMu held across the append,
	// so stamp order matches commit-record order and the high-water can
	// advance densely. The stamp rides in the commit record's payload;
	// recovery re-derives the high-water from it.
	tx.mgr.stampMu.Lock()
	stamp := tx.mgr.nextStamp
	tx.mgr.nextStamp++
	tx.mgr.pending[stamp] = false
	commitLSN, err := tx.mgr.Log.Append(tx.id, wal.RecCommit, wal.Owner{}, wal.EncodeCommitStamp(stamp))
	tx.mgr.stampMu.Unlock()
	if err != nil {
		tx.mgr.publishStamp(stamp)
		return tx.commitFailed(err)
	}
	// The commit point: the transaction is committed only once the commit
	// record is on stable storage. Until the force returns the caller must
	// not be told the commit succeeded, and EventCommit (whose contract
	// promises durability) must not fire. SyncCommitted group-commits:
	// concurrently arriving commit records share one fsync.
	forceStart := time.Now()
	if err := tx.mgr.Log.SyncCommitted(commitLSN); err != nil {
		// The stamp is published as dead so the high-water queue keeps
		// draining; the transaction's versions stay unstamped (invisible)
		// and restart recovery resolves its fate from the log.
		tx.mgr.publishStamp(stamp)
		return tx.commitFailed(err)
	}
	tx.tr.Event("wal.force", "", "commit", forceStart, time.Since(forceStart), nil)
	tx.state = StateCommitted
	tx.commitStamp = stamp
	commitErr := tx.fire(EventCommit, "")
	// Only after EventCommit has stamped this transaction's version
	// chains may the high-water cover the stamp: a snapshot taken at
	// HW >= stamp must find every version already stamped.
	tx.mgr.publishStamp(stamp)
	endErr := tx.fire(EventEnd, "")
	tx.mgr.Locks.ReleaseAll(tx.id)
	if _, err := tx.mgr.Log.Append(tx.id, wal.RecEnd, wal.Owner{}, nil); err != nil {
		return err
	}
	tx.mgr.finish(tx, "committed")
	tx.tr.Finish("committed")
	if h := tx.mgr.OnEnd; h != nil {
		h()
	}
	if commitErr != nil {
		return commitErr
	}
	return endErr
}

// commitFailed handles a commit whose record could not be appended or
// made durable (typically a dead log device or an injected crash). The
// transaction's fate is unknown — the record may or may not have reached
// stable storage — so no undo is attempted here; restart recovery will
// resolve it from the log. Locally the transaction is dead: EventEnd
// fires (extensions drop what they kept for it), locks are released and
// the handle retired so the process can shut down.
func (tx *Txn) commitFailed(err error) error {
	tx.state = StateAborted
	endErr := tx.fire(EventEnd, "")
	tx.mgr.Locks.ReleaseAll(tx.id)
	tx.mgr.finish(tx, "commit_failed")
	tx.tr.Finish("commit_failed")
	if endErr != nil {
		return fmt.Errorf("txn: commit not durable: %w (at end: %v)", err, endErr)
	}
	return fmt.Errorf("txn: commit not durable: %w", err)
}

// finishReadOnly terminates a snapshot transaction. Nothing was logged
// and no locks were acquired, so termination is local: EventEnd closes
// any open scans, the snapshot is released, and the log stays untouched.
// ReleaseAll is still called to keep the termination contract uniform
// (it is a no-op for a lock-free transaction and acquires nothing).
func (tx *Txn) finishReadOnly(st State, outcome string) error {
	tx.state = st
	var abortErr error
	if st == StateAborted {
		abortErr = tx.fire(EventAbort, "")
	}
	endErr := tx.fire(EventEnd, "")
	tx.mgr.Locks.ReleaseAll(tx.id)
	tx.mgr.finish(tx, outcome)
	tx.tr.Finish(outcome)
	if h := tx.mgr.OnEnd; h != nil {
		h()
	}
	if abortErr != nil {
		return abortErr
	}
	return endErr
}

// Abort rolls the whole transaction back through the common log, fires
// abort and end notifications, and releases all locks.
func (tx *Txn) Abort() error {
	if tx.state != StateActive && tx.state != StatePreparing {
		return ErrNotActive
	}
	if tx.readOnly {
		return tx.finishReadOnly(StateAborted, "aborted")
	}
	rbErr := tx.mgr.Log.Rollback(tx.id, 0, tx.mgr.Undoer)
	if _, err := tx.mgr.Log.Append(tx.id, wal.RecAbort, wal.Owner{}, nil); err != nil {
		return err
	}
	tx.state = StateAborted
	abortErr := tx.fire(EventAbort, "")
	endErr := tx.fire(EventEnd, "")
	tx.mgr.Locks.ReleaseAll(tx.id)
	if _, err := tx.mgr.Log.Append(tx.id, wal.RecEnd, wal.Owner{}, nil); err != nil {
		return err
	}
	tx.mgr.finish(tx, "aborted")
	tx.tr.Finish("aborted")
	if h := tx.mgr.OnEnd; h != nil {
		h()
	}
	switch {
	case rbErr != nil:
		return rbErr
	case abortErr != nil:
		return abortErr
	default:
		return endErr
	}
}

// fire drains the event's deferred action queue in order, then notifies
// persistent subscribers. The deferred queue is cleared before running so
// actions may re-defer for a later firing. The first error stops the drain.
func (tx *Txn) fire(event Event, savepoint string) error {
	queue := tx.deferred[event]
	tx.deferred[event] = nil
	for _, a := range queue {
		if err := a(tx, savepoint); err != nil {
			return err
		}
	}
	for _, sub := range tx.subs {
		if sub.event != event {
			continue
		}
		if err := sub.action(tx, savepoint); err != nil {
			return err
		}
	}
	return nil
}
