// Package lock implements the system-supplied lock manager of the data
// management extension architecture.
//
// The architecture assumes all storage method and attachment
// implementations synchronise with locking-based concurrency control (a mix
// with timestamp or validation schemes is not serialisable in general), so
// a single lock manager is offered as a common service. It supports
// hierarchical intention modes, in-place upgrades, FIFO queuing, and
// system-wide deadlock detection over the waits-for graph; every lock is
// held to transaction end and released by ReleaseAll.
//
// Internally the resource table is sharded by resource hash so uncontended
// grants on different resources never serialise on one mutex. Graph-wide
// state — the per-transaction held sets, the wait table, and deadlock
// detection — is owned by a global mutex taken only on the slow paths
// (blocking, release). Lock order is strictly global-then-shard; shard
// mutexes never nest.
package lock

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dmx/internal/obs"
	"dmx/internal/wal"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes, weakest to strongest.
const (
	ModeNone Mode = iota
	ModeIS
	ModeIX
	ModeS
	ModeSIX
	ModeX
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "NONE"
	case ModeIS:
		return "IS"
	case ModeIX:
		return "IX"
	case ModeS:
		return "S"
	case ModeSIX:
		return "SIX"
	case ModeX:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// compatible reports whether two modes may be held simultaneously by
// different transactions.
func compatible(a, b Mode) bool {
	switch a {
	case ModeNone:
		return true
	case ModeIS:
		return b != ModeX
	case ModeIX:
		return b == ModeIS || b == ModeIX || b == ModeNone
	case ModeS:
		return b == ModeIS || b == ModeS || b == ModeNone
	case ModeSIX:
		return b == ModeIS || b == ModeNone
	case ModeX:
		return b == ModeNone
	default:
		return false
	}
}

// supremum returns the weakest mode at least as strong as both a and b.
// The mode lattice is the classical hierarchical-locking one: IX ∨ S is
// SIX (shared with intent to write), so a reader that upgrades to
// intention-write keeps admitting concurrent IS readers instead of
// escalating all the way to X.
func supremum(a, b Mode) Mode {
	if a == b {
		return a
	}
	if (a == ModeIX && b == ModeS) || (a == ModeS && b == ModeIX) {
		return ModeSIX
	}
	if a > b {
		return a
	}
	return b
}

// ErrDeadlock is returned to the transaction chosen as deadlock victim.
var ErrDeadlock = errors.New("lock: deadlock detected; transaction chosen as victim")

// ErrNotHeld is returned when downgrading or inspecting a lock that is not held.
var ErrNotHeld = errors.New("lock: not held")

// Resource names a lockable object: a relation, a record key within a
// relation, or an extension-private resource string.
type Resource struct {
	Rel uint32
	Key string // empty = relation-level lock
}

// String renders the resource for diagnostics.
func (r Resource) String() string {
	if r.Key == "" {
		return fmt.Sprintf("rel(%d)", r.Rel)
	}
	return fmt.Sprintf("rel(%d)/key(%x)", r.Rel, r.Key)
}

// RelResource returns the relation-level resource for relID.
func RelResource(relID uint32) Resource { return Resource{Rel: relID} }

// KeyResource returns the record-level resource for a key within a relation.
func KeyResource(relID uint32, key []byte) Resource {
	return Resource{Rel: relID, Key: string(key)}
}

// ExtResource returns an extension-private resource within a relation: ext
// identifies the extension (an attachment type id) and name what it locks.
// The leading 0xFF byte keeps these apart from record-level resources: an
// order-preserving key encoding starts with a kind tag, and a fixed-width
// record key starts with the high byte of a page or sequence number. A
// clash could in any case only make two transactions wait for each other
// needlessly.
func ExtResource(relID uint32, ext uint8, name []byte) Resource {
	return Resource{Rel: relID, Key: string([]byte{0xFF, ext}) + string(name)}
}

type request struct {
	txn  wal.TxnID
	res  Resource // the resource the request queues on (for targeted DFS)
	mode Mode
	done chan error // receives nil on grant, error on deadlock victim/cancel
}

type lockState struct {
	holders map[wal.TxnID]Mode
	queue   []*request
}

// numShards splits the resource table; resources hash to a shard and
// uncontended acquires touch only that shard's mutex.
const numShards = 16

type lockShard struct {
	mu    sync.Mutex
	locks map[Resource]*lockState
}

// state returns the lock state for res, creating it when create is set.
// Caller holds sh.mu.
func (sh *lockShard) state(res Resource, create bool) *lockState {
	ls := sh.locks[res]
	if ls == nil && create {
		ls = &lockState{holders: make(map[wal.TxnID]Mode)}
		sh.locks[res] = ls
	}
	return ls
}

// Manager is the lock manager. It is safe for concurrent use.
//
// Invariants: a transaction appears in waits exactly while its request sits
// in some shard queue, and both facts change together under gmu + the
// resource's shard mutex. The entry is removed by whoever settles the
// request — the granter in wake, the canceller in ReleaseAll, or the victim
// path in Acquire — never by the awakened waiter, so the waits-for graph
// seen by deadlock detection holds no already-granted phantom edges.
type Manager struct {
	shards [numShards]*lockShard

	gmu   sync.Mutex                      // graph mutex: held, waits, DFS
	held  map[wal.TxnID]map[Resource]Mode // per-txn held set for ReleaseAll
	waits map[wal.TxnID]*request          // txn -> its single pending request
	obs   *obs.LockStats

	// waitSink, when set, is called on the waiter's goroutine after every
	// blocked Acquire resolves, with the waiting transaction and the time
	// it spent blocked. Uncontended grants never reach it. The transaction
	// manager uses it to charge waits to per-transaction ledgers.
	waitSink func(wal.TxnID, time.Duration)
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	m := &Manager{
		held:  make(map[wal.TxnID]map[Resource]Mode),
		waits: make(map[wal.TxnID]*request),
		obs:   &obs.LockStats{},
	}
	for i := range m.shards {
		m.shards[i] = &lockShard{locks: make(map[Resource]*lockState)}
	}
	return m
}

// shardFor hashes res to its shard (FNV-1a over rel id and key bytes).
func (m *Manager) shardFor(res Resource) *lockShard {
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= (res.Rel >> (8 * i)) & 0xff
		h *= 16777619
	}
	for i := 0; i < len(res.Key); i++ {
		h ^= uint32(res.Key[i])
		h *= 16777619
	}
	return m.shards[h%numShards]
}

// SetObs points the manager's instrumentation at a shared metric registry.
// Call before concurrent use (the environment wires it at assembly).
func (m *Manager) SetObs(ls *obs.LockStats) {
	if ls != nil {
		m.obs = ls
	}
}

// SetWaitSink installs the blocked-acquire callback. Call before
// concurrent use (the transaction manager wires it at construction).
func (m *Manager) SetWaitSink(sink func(wal.TxnID, time.Duration)) {
	m.waitSink = sink
}

// Acquire obtains mode on res for txn, blocking until granted. If the wait
// would close a cycle in the waits-for graph, the requesting transaction is
// chosen as victim and ErrDeadlock is returned instead. Re-acquiring a
// resource upgrades the held mode to the supremum.
func (m *Manager) Acquire(txn wal.TxnID, res Resource, mode Mode) error {
	m.obs.Requests.Inc()
	sh := m.shardFor(res)
	// Fast path: grant under the shard mutex alone, then record the held
	// entry under gmu (sequentially — the mutexes never nest this way
	// round). The window where the grant is visible in the shard but not
	// yet in held is benign: deadlock DFS reads holders, and ReleaseAll
	// for this transaction cannot run concurrently with its own Acquire
	// (transactions are goroutine-confined).
	sh.mu.Lock()
	granted, settled := m.tryGrantLocked(sh, txn, res, mode)
	sh.mu.Unlock()
	if settled {
		if granted {
			m.recordHeld(txn, res)
		}
		return nil
	}

	// Slow path: must (probably) wait. Re-check under gmu + shard — the
	// holders may have drained between the unlock and here.
	m.gmu.Lock()
	sh.mu.Lock()
	ls := sh.state(res, true)
	want := mode
	holds := false
	if cur, ok := ls.holders[txn]; ok {
		holds = true
		want = supremum(cur, mode)
		if want == cur {
			sh.mu.Unlock()
			m.gmu.Unlock()
			return nil
		}
	}
	if m.grantable(ls, txn, want) && (holds || len(ls.queue) == 0) {
		ls.holders[txn] = want
		sh.mu.Unlock()
		m.recordHeldLocked(txn, res, want)
		m.gmu.Unlock()
		return nil
	}
	// Enqueue. Upgrades jump the queue ahead of fresh requests so an
	// S-holder upgrading to X cannot deadlock behind a newcomer; but if a
	// grantable-now upgrade exists we handled it above.
	req := &request{txn: txn, res: res, mode: want, done: make(chan error, 1)}
	if holds {
		ls.queue = append([]*request{req}, ls.queue...)
	} else {
		ls.queue = append(ls.queue, req)
	}
	m.waits[txn] = req
	sh.mu.Unlock()
	if m.wouldDeadlockLocked(txn) {
		sh.mu.Lock()
		m.removeRequest(ls, req)
		sh.mu.Unlock()
		delete(m.waits, txn)
		m.gmu.Unlock()
		m.obs.Deadlocks.Inc()
		return ErrDeadlock
	}
	m.obs.Waits.Inc()
	m.obs.Queue.Inc()
	waitStart := time.Now()
	m.gmu.Unlock()

	// The settler (granter or canceller) removed our waits entry before
	// signalling, so no phantom wait edge survives the grant.
	err := <-req.done
	m.obs.Queue.Dec()
	waited := time.Since(waitStart)
	m.obs.WaitTime.Observe(waited)
	if m.waitSink != nil {
		m.waitSink(txn, waited)
	}
	return err
}

// tryGrantLocked attempts an immediate grant under sh.mu. It returns
// (granted, settled): settled without granted means the lock was already
// held strongly enough. Fresh requests yield to an existing queue (FIFO
// fairness); upgrades may bypass it.
func (m *Manager) tryGrantLocked(sh *lockShard, txn wal.TxnID, res Resource, mode Mode) (granted, settled bool) {
	ls := sh.state(res, false)
	if ls == nil {
		sh.state(res, true).holders[txn] = mode
		return true, true
	}
	want := mode
	holds := false
	if cur, ok := ls.holders[txn]; ok {
		holds = true
		want = supremum(cur, mode)
		if want == cur {
			return false, true // already strong enough
		}
	}
	if m.grantable(ls, txn, want) && (holds || len(ls.queue) == 0) {
		ls.holders[txn] = want
		return true, true
	}
	return false, false
}

// TryAcquire is Acquire without blocking: it returns false if the lock is
// not immediately grantable.
func (m *Manager) TryAcquire(txn wal.TxnID, res Resource, mode Mode) bool {
	m.obs.Requests.Inc()
	sh := m.shardFor(res)
	sh.mu.Lock()
	granted, settled := m.tryGrantLocked(sh, txn, res, mode)
	sh.mu.Unlock()
	if granted {
		m.recordHeld(txn, res)
	}
	return settled
}

// grantable reports whether txn may hold want on ls given the OTHER holders.
func (m *Manager) grantable(ls *lockState, txn wal.TxnID, want Mode) bool {
	for holder, held := range ls.holders {
		if holder == txn {
			continue
		}
		if !compatible(want, held) {
			return false
		}
	}
	return true
}

// recordHeld mirrors a shard grant into the per-txn held set.
func (m *Manager) recordHeld(txn wal.TxnID, res Resource) {
	sh := m.shardFor(res)
	m.gmu.Lock()
	// Re-read the granted mode: a same-txn upgrade cannot race (goroutine
	// confinement), so the holder entry is still ours.
	sh.mu.Lock()
	mode := ModeNone
	if ls := sh.state(res, false); ls != nil {
		mode = ls.holders[txn]
	}
	sh.mu.Unlock()
	if mode != ModeNone {
		m.recordHeldLocked(txn, res, mode)
	}
	m.gmu.Unlock()
}

// recordHeldLocked updates the held set under gmu.
func (m *Manager) recordHeldLocked(txn wal.TxnID, res Resource, mode Mode) {
	hm := m.held[txn]
	if hm == nil {
		hm = make(map[Resource]Mode)
		m.held[txn] = hm
	}
	hm[res] = mode
}

func (m *Manager) removeRequest(ls *lockState, req *request) {
	for i, r := range ls.queue {
		if r == req {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			return
		}
	}
}

// ReleaseAll drops every lock txn holds and cancels any pending request.
// Called by the transaction manager at commit or abort (all locks are
// released at transaction termination).
func (m *Manager) ReleaseAll(txn wal.TxnID) {
	m.gmu.Lock()
	defer m.gmu.Unlock()
	if req, ok := m.waits[txn]; ok {
		sh := m.shardFor(req.res)
		sh.mu.Lock()
		if ls := sh.state(req.res, false); ls != nil {
			m.removeRequest(ls, req)
		}
		sh.mu.Unlock()
		delete(m.waits, txn)
		req.done <- fmt.Errorf("lock: transaction %d terminated while waiting", txn)
	}
	for res := range m.held[txn] {
		sh := m.shardFor(res)
		sh.mu.Lock()
		ls := sh.state(res, false)
		if ls == nil {
			sh.mu.Unlock()
			continue
		}
		delete(ls.holders, txn)
		m.wakeLocked(ls, res)
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			delete(sh.locks, res)
		}
		sh.mu.Unlock()
	}
	delete(m.held, txn)
}

// wakeLocked grants the longest compatible prefix of the queue. Caller
// holds gmu and the resource's shard mutex; the granter removes the waits
// entry before signalling, so a granted transaction never lingers in the
// waits-for graph as a phantom edge.
func (m *Manager) wakeLocked(ls *lockState, res Resource) {
	for len(ls.queue) > 0 {
		req := ls.queue[0]
		if !m.grantable(ls, req.txn, req.mode) {
			return
		}
		ls.queue = ls.queue[1:]
		ls.holders[req.txn] = req.mode
		m.recordHeldLocked(req.txn, res, req.mode)
		delete(m.waits, req.txn)
		req.done <- nil
	}
}

// wouldDeadlockLocked runs DFS over the waits-for graph starting from txn,
// following waiter → incompatible holder edges. Caller holds gmu (which
// pins the wait table); each hop reads its resource's holders under that
// shard's mutex. Wait edges are only added under gmu, so the transaction
// that completes a cycle always sees the whole cycle here.
func (m *Manager) wouldDeadlockLocked(start wal.TxnID) bool {
	visited := map[wal.TxnID]bool{}
	var dfs func(t wal.TxnID) bool
	dfs = func(t wal.TxnID) bool {
		req, waiting := m.waits[t]
		if !waiting {
			return false
		}
		sh := m.shardFor(req.res)
		sh.mu.Lock()
		var blockers []wal.TxnID
		if ls := sh.state(req.res, false); ls != nil {
			for holder, held := range ls.holders {
				if holder == t || compatible(req.mode, held) {
					continue
				}
				blockers = append(blockers, holder)
			}
		}
		sh.mu.Unlock()
		for _, holder := range blockers {
			if holder == start {
				return true
			}
			if !visited[holder] {
				visited[holder] = true
				if dfs(holder) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// HeldLock is one granted lock as seen by sys.stat_locks.
type HeldLock struct {
	Txn  wal.TxnID
	Res  Resource
	Mode Mode
}

// WaitingLock is one pending request plus its waits-for edges: the
// transactions whose incompatible holds block it.
type WaitingLock struct {
	Txn      wal.TxnID
	Res      Resource
	Mode     Mode
	Blockers []wal.TxnID
}

// SnapshotLocks returns the granted and waiting lock requests, with
// waits-for edges resolved for each waiter. It takes gmu and then each
// waiter's shard mutex — the same global-then-shard order every slow path
// uses — so it can run concurrently with Acquire/ReleaseAll without
// deadlock risk. Results are sorted (txn, then resource) for stable
// relation output.
func (m *Manager) SnapshotLocks() (held []HeldLock, waiting []WaitingLock) {
	m.gmu.Lock()
	for txn, hm := range m.held {
		for res, mode := range hm {
			held = append(held, HeldLock{Txn: txn, Res: res, Mode: mode})
		}
	}
	for txn, req := range m.waits {
		w := WaitingLock{Txn: txn, Res: req.res, Mode: req.mode}
		sh := m.shardFor(req.res)
		sh.mu.Lock()
		if ls := sh.state(req.res, false); ls != nil {
			for holder, heldMode := range ls.holders {
				if holder != txn && !compatible(req.mode, heldMode) {
					w.Blockers = append(w.Blockers, holder)
				}
			}
		}
		sh.mu.Unlock()
		sort.Slice(w.Blockers, func(i, j int) bool { return w.Blockers[i] < w.Blockers[j] })
		waiting = append(waiting, w)
	}
	m.gmu.Unlock()
	sort.Slice(held, func(i, j int) bool {
		if held[i].Txn != held[j].Txn {
			return held[i].Txn < held[j].Txn
		}
		return held[i].Res.String() < held[j].Res.String()
	})
	sort.Slice(waiting, func(i, j int) bool {
		if waiting[i].Txn != waiting[j].Txn {
			return waiting[i].Txn < waiting[j].Txn
		}
		return waiting[i].Res.String() < waiting[j].Res.String()
	})
	return held, waiting
}

// HeldMode returns the mode txn holds on res (ModeNone if not held).
func (m *Manager) HeldMode(txn wal.TxnID, res Resource) Mode {
	m.gmu.Lock()
	defer m.gmu.Unlock()
	return m.held[txn][res]
}

// HeldCount returns how many locks txn currently holds.
func (m *Manager) HeldCount(txn wal.TxnID) int {
	m.gmu.Lock()
	defer m.gmu.Unlock()
	return len(m.held[txn])
}
