package txn

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dmx/internal/obs"
	"dmx/internal/wal"
)

// Stats is the per-transaction resource ledger: every dispatch boundary
// the transaction crosses charges its work here. Fields are atomics not
// because the owning goroutine races itself (a Txn is goroutine-confined)
// but because the self-observation relations (sys.stat_activity) read the
// ledger of in-flight transactions from other goroutines, and the lock
// manager's wait path charges the waiter from inside Acquire.
//
// Accounting is always on, so sys.stat_activity always has live data.
type Stats struct {
	RowsRead      atomic.Int64 // records returned by fetches and scan Next
	RowsWritten   atomic.Int64 // records inserted, updated, or deleted
	LockWaits     atomic.Int64 // lock requests that blocked
	LockWaitNanos atomic.Int64 // cumulative time blocked on locks
	WALRecords    atomic.Int64 // log records appended on the txn's behalf
	WALBytes      atomic.Int64 // log payload bytes appended
	BufferHits    atomic.Int64 // buffer-pool page pins answered from memory
	BufferMisses  atomic.Int64 // buffer-pool page pins that read from disk
	ChainWalks    atomic.Int64 // MVCC version-chain walks past an invisible head
}

// StatsSnapshot is a point-in-time copy of a Stats ledger, safe to hold
// after the transaction finishes.
//
// Each field is a column of sys.stat_activity and sys.stat_history, named by
// its json tag (syssm builds both views from the row types), so a new counter
// is a field in Stats, a field here, and a line in Snapshot.
type StatsSnapshot struct {
	RowsRead      int64 `json:"rows_read"`
	RowsWritten   int64 `json:"rows_written"`
	LockWaits     int64 `json:"lock_waits"`
	LockWaitNanos int64 `json:"lock_wait_ns"`
	WALRecords    int64 `json:"wal_records"`
	WALBytes      int64 `json:"wal_bytes"`
	BufferHits    int64 `json:"buffer_hits"`
	BufferMisses  int64 `json:"buffer_misses"`
	ChainWalks    int64 `json:"chain_walks"`
}

// Snapshot copies the ledger with atomic loads. Counters are read
// individually, so a snapshot taken while the owner is mid-operation may
// be torn across fields but never within one.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		RowsRead:      s.RowsRead.Load(),
		RowsWritten:   s.RowsWritten.Load(),
		LockWaits:     s.LockWaits.Load(),
		LockWaitNanos: s.LockWaitNanos.Load(),
		WALRecords:    s.WALRecords.Load(),
		WALBytes:      s.WALBytes.Load(),
		BufferHits:    s.BufferHits.Load(),
		BufferMisses:  s.BufferMisses.Load(),
		ChainWalks:    s.ChainWalks.Load(),
	}
}

// Acct returns the transaction's resource ledger, or nil for a nil
// transaction (recovery and maintenance paths run with none). Charge
// points write through it:
//
//	if st := tx.Acct(); st != nil {
//		st.RowsRead.Add(1)
//	}
func (tx *Txn) Acct() *Stats {
	if tx == nil {
		return nil
	}
	return &tx.stats
}

// Start returns the wall-clock time the transaction began.
func (tx *Txn) Start() time.Time { return tx.start }

// Mode returns "readonly" for snapshot transactions and "write" otherwise.
func (tx *Txn) Mode() string {
	if tx.readOnly {
		return "readonly"
	}
	return "write"
}

// TxnInfo is one sys.stat_activity row, an open transaction: a
// consistent-enough view assembled from atomic counter loads while the
// owner keeps running. Fields are the view's columns, in order.
type TxnInfo struct {
	ID    wal.TxnID `json:"id"`
	Mode  string    `json:"mode"`
	State string    `json:"state"`
	User  string    `json:"username,omitempty"`
	Start time.Time `json:"start_ns"`
	StatsSnapshot
}

// FinishedTxn is one sys.stat_history row, an entry of the
// recently-finished ring: the transaction's outcome and final ledger.
type FinishedTxn struct {
	ID          wal.TxnID `json:"id"`
	Mode        string    `json:"mode"`
	Outcome     string    `json:"outcome"` // committed | aborted | commit_failed
	User        string    `json:"username,omitempty"`
	Start       time.Time `json:"start_ns"`
	End         time.Time `json:"end_ns"`
	CommitStamp uint64    `json:"commit_stamp"`
	StatsSnapshot
}

// historySize bounds the recently-finished ring. Large enough that a
// diagnostic query lands after a burst of short transactions, small
// enough to be an irrelevant memory cost.
const historySize = 256

// txnHistory is the bounded ring of recently-finished transactions.
type txnHistory struct {
	mu   sync.Mutex
	ring [historySize]FinishedTxn
	n    uint64 // total recorded; ring[(n-1)%historySize] is newest
}

func (h *txnHistory) add(f FinishedTxn) {
	h.mu.Lock()
	h.ring[h.n%historySize] = f
	h.n++
	h.mu.Unlock()
}

// list returns the retained entries, newest first.
func (h *txnHistory) list() []FinishedTxn {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.n
	keep := n
	if keep > historySize {
		keep = historySize
	}
	out := make([]FinishedTxn, 0, keep)
	for i := uint64(0); i < keep; i++ {
		out = append(out, h.ring[(n-1-i)%historySize])
	}
	return out
}

// SetObs wires the manager's lifecycle counters (commits by mode, aborts,
// rolled-up wait and WAL totals) into the engine metrics registry.
func (m *Manager) SetObs(ts *obs.TxnStats) { m.obs = ts }

// ActiveSnapshot returns one TxnInfo per open transaction, ordered by ID.
// The counter loads race the owners by design: each field is internally
// consistent, and that is exactly the contract sys.stat_activity offers.
func (m *Manager) ActiveSnapshot() []TxnInfo {
	m.mu.Lock()
	txs := make([]*Txn, 0, len(m.active))
	for _, tx := range m.active {
		txs = append(txs, tx)
	}
	m.mu.Unlock()
	out := make([]TxnInfo, 0, len(txs))
	for _, tx := range txs {
		out = append(out, tx.info())
	}
	slices.SortFunc(out, func(a, b TxnInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// info assembles the live view of tx. state is read atomically via the
// manager's map membership (an active map entry is Active or Preparing);
// reading tx.state directly would race the owner, so the published state
// string is derived from mode + the stats-visible facts only.
func (tx *Txn) info() TxnInfo {
	return TxnInfo{
		ID:            tx.id,
		Mode:          tx.Mode(),
		State:         "active",
		User:          tx.user,
		Start:         tx.start,
		StatsSnapshot: tx.stats.Snapshot(),
	}
}

// History returns the recently-finished transactions, newest first.
func (m *Manager) History() []FinishedTxn {
	return m.history.list()
}

// recordFinished snapshots a terminating transaction into the history
// ring and rolls its totals into the engine metrics. Called from finish,
// which every termination path funnels through.
func (m *Manager) recordFinished(tx *Txn, outcome string) {
	snap := tx.stats.Snapshot()
	m.history.add(FinishedTxn{
		ID:            tx.id,
		Mode:          tx.Mode(),
		Outcome:       outcome,
		User:          tx.user,
		Start:         tx.start,
		End:           time.Now(),
		CommitStamp:   tx.commitStamp,
		StatsSnapshot: snap,
	})
	if m.obs == nil {
		return
	}
	switch outcome {
	case "committed":
		if tx.readOnly {
			m.obs.CommitsReadOnly.Inc()
		} else {
			m.obs.CommitsWrite.Inc()
		}
	default:
		m.obs.Aborts.Inc()
	}
	m.obs.LockWaitNanos.Add(snap.LockWaitNanos)
	m.obs.WALBytes.Add(snap.WALBytes)
	m.obs.RowsRead.Add(snap.RowsRead)
	m.obs.RowsWritten.Add(snap.RowsWritten)
}

// chargeLockWait is the lock manager's wait-sink: it runs on the waiter's
// goroutine after a blocked Acquire resolves, charging the wait to the
// owning transaction if it is still open. Only the slow path pays the map
// lookup; uncontended grants never reach here.
func (m *Manager) chargeLockWait(id wal.TxnID, d time.Duration) {
	m.mu.Lock()
	tx := m.active[id]
	m.mu.Unlock()
	if tx == nil {
		return
	}
	tx.stats.LockWaits.Add(1)
	tx.stats.LockWaitNanos.Add(int64(d))
}
