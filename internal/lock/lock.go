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
// Internally the resource table is sharded by resource hash; a shard holds
// the granted modes and the FIFO queue of its resources. A transaction's
// held set, the resources ReleaseAll visits, lives in a second table
// sharded by transaction id. The fast paths take one resource-shard mutex:
// an uncontended grant (then the held-set shard's mutex, to note a newly
// held resource) and the release of a lock with no queue. Neither takes
// the global mutex gmu, and in steady state neither allocates: each shard
// recycles lock states and held lists up to a fixed cap. gmu owns the wait
// table and deadlock detection; it is taken when a request must wait, when
// a release has a queue to wake, and when a waiting request is cancelled.
// Lock order is gmu, then a resource shard, then a held-set shard;
// resource-shard mutexes never nest and held-set shard mutexes are leaves.
package lock

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
// relation, or an extension-private name. It is a comparable value, the
// key of the lock table. A name of up to inlineName bytes is held in the
// value itself and only a longer one in a string, so the resource of a
// record key or of a unique value allocates nothing. Every name has
// exactly one of the two forms, so two resources are equal exactly when
// their relations and names are.
type Resource struct {
	Rel  uint32
	n    uint8            // the length of an inline name
	in   [inlineName]byte // an inline name; zero past n
	long string           // a name longer than inlineName; "" otherwise
}

// inlineName is the longest name a Resource holds inline: the bytes left
// in the word-aligned prefix beside Rel and n. It covers the heap's 8-byte
// record keys and the 15-byte 0xFF‖ext‖seq‖INT value lock of a unique
// attachment.
const inlineName = 19

// String renders the resource for diagnostics.
func (r Resource) String() string {
	if r.n == 0 && r.long == "" {
		return fmt.Sprintf("rel(%d)", r.Rel)
	}
	return fmt.Sprintf("rel(%d)/key(%x%x)", r.Rel, r.in[:r.n], r.long)
}

// RelResource returns the relation-level resource for relID.
func RelResource(relID uint32) Resource { return Resource{Rel: relID} }

// KeyResource returns the record-level resource for a key within a relation.
func KeyResource(relID uint32, key []byte) Resource {
	r := Resource{Rel: relID}
	if len(key) <= inlineName {
		r.n = uint8(copy(r.in[:], key))
	} else {
		r.long = string(key)
	}
	return r
}

// ExtResource returns an extension-private resource within a relation: ext
// identifies the extension (an attachment type id) and the concatenated
// name parts what it locks; a name too long to be inline is built in one
// allocation.
// The leading 0xFF byte keeps these apart from record-level resources: an
// order-preserving key encoding starts with a kind tag, and a fixed-width
// record key starts with the high byte of a page or sequence number. A
// clash could in any case only make two transactions wait for each other
// needlessly.
func ExtResource(relID uint32, ext uint8, name ...[]byte) Resource {
	n := 2
	for _, p := range name {
		n += len(p)
	}
	r := Resource{Rel: relID}
	if n <= inlineName {
		r.in[0], r.in[1] = 0xFF, ext
		r.n = 2
		for _, p := range name {
			r.n += uint8(copy(r.in[r.n:], p))
		}
		return r
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte(0xFF)
	b.WriteByte(ext)
	for _, p := range name {
		b.Write(p)
	}
	r.long = b.String()
	return r
}

type request struct {
	txn  wal.TxnID
	res  Resource // the resource the request queues on (for targeted DFS)
	mode Mode
	done chan error // receives nil on grant, error on deadlock victim/cancel
}

// holder is one granted lock on a resource.
type holder struct {
	txn  wal.TxnID
	mode Mode
}

type lockState struct {
	holders []holder // almost always one entry
	queue   []*request
}

// find returns the index of txn's entry in ls.holders, or -1.
func (ls *lockState) find(txn wal.TxnID) int {
	for i, h := range ls.holders {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

// grant sets txn's mode on ls and reports whether txn is a new holder.
func (ls *lockState) grant(txn wal.TxnID, mode Mode) (fresh bool) {
	if i := ls.find(txn); i >= 0 {
		ls.holders[i].mode = mode
		return false
	}
	ls.holders = append(ls.holders, holder{txn: txn, mode: mode})
	return true
}

// drop removes txn from the holders.
func (ls *lockState) drop(txn wal.TxnID) {
	if i := ls.find(txn); i >= 0 {
		last := len(ls.holders) - 1
		ls.holders[i] = ls.holders[last]
		ls.holders = ls.holders[:last]
	}
}

// numShards splits the resource table, and the held-set table, into
// independently locked shards.
const numShards = 16

// maxRecycled bounds what a shard keeps for reuse: at most this many
// retired lock states or emptied held lists, and no held list whose
// capacity grew past it. A bulk transaction's many states and its long
// held list go to the garbage collector when it ends.
const maxRecycled = 64

type lockShard struct {
	mu    sync.Mutex
	locks map[Resource]*lockState
	free  []*lockState // retired states, at most maxRecycled
	peak  int          // most entries locks has held since it was made
}

// shrinkAbove is the peak past which a shard's table is replaced once it
// empties: a Go map never gives back the buckets it grew, and every later
// probe of an oversized table, as after one bulk-loading transaction,
// pays for them.
const shrinkAbove = 4 * maxRecycled

// state returns the lock state for res, creating it if absent. Caller
// holds sh.mu.
func (sh *lockShard) state(res Resource) *lockState {
	ls := sh.locks[res]
	if ls == nil {
		if n := len(sh.free); n > 0 {
			ls = sh.free[n-1]
			sh.free[n-1] = nil
			sh.free = sh.free[:n-1]
		} else {
			ls = &lockState{}
		}
		sh.locks[res] = ls
		sh.peak = max(sh.peak, len(sh.locks))
	}
	return ls
}

// retireIfIdle removes ls from the table once nobody holds or awaits it,
// keeping it for reuse while the free list has room, and replaces a table
// that empties after outgrowing shrinkAbove. Caller holds sh.mu.
func (sh *lockShard) retireIfIdle(res Resource, ls *lockState) {
	if len(ls.holders) != 0 || len(ls.queue) != 0 {
		return
	}
	delete(sh.locks, res)
	if len(sh.locks) == 0 && sh.peak > shrinkAbove {
		sh.locks, sh.peak = make(map[Resource]*lockState), 0
	}
	if len(sh.free) < maxRecycled && cap(ls.holders) <= maxRecycled {
		ls.queue = nil
		sh.free = append(sh.free, ls)
	}
}

// heldShard records, for the transactions whose ids hash to it, the
// resources each holds, in grant order. The modes live in the resource
// shards. Its mutex is a leaf: nothing is locked under it.
type heldShard struct {
	mu   sync.Mutex
	sets map[wal.TxnID][]Resource
	free [][]Resource // emptied lists, at most maxRecycled
}

// Manager is the lock manager. It is safe for concurrent use.
//
// Invariants: a transaction appears in waits exactly while its request sits
// in some shard queue, and both facts change together under gmu + the
// resource's shard mutex. The entry is removed by whoever settles the
// request — the granter in wake, the canceller in ReleaseAll, or the victim
// path in Acquire — never by the awakened waiter, so the waits-for graph
// seen by deadlock detection holds no already-granted phantom edges.
// A queue changes only under gmu, so a release that finds its resource's
// queue empty under the shard mutex has no one to wake.
type Manager struct {
	shards [numShards]*lockShard
	held   [numShards]*heldShard // by transaction id

	gmu     sync.Mutex             // graph mutex: waits, DFS
	waits   map[wal.TxnID]*request // txn -> its single pending request
	waiters atomic.Int64           // len(waits), read by ReleaseAll without gmu
	obs     *obs.LockStats

	// waitSink, when set, is called on the waiter's goroutine after every
	// blocked Acquire resolves, with the waiting transaction and the time
	// it spent blocked. Uncontended grants never reach it. The transaction
	// manager uses it to charge waits to per-transaction ledgers.
	waitSink func(wal.TxnID, time.Duration)
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	m := &Manager{
		waits: make(map[wal.TxnID]*request),
		obs:   &obs.LockStats{},
	}
	for i := range m.shards {
		m.shards[i] = &lockShard{locks: make(map[Resource]*lockState)}
		m.held[i] = &heldShard{sets: make(map[wal.TxnID][]Resource)}
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
	for i := 0; i < int(res.n); i++ { // the name is inline or long, never both
		h ^= uint32(res.in[i])
		h *= 16777619
	}
	for i := 0; i < len(res.long); i++ {
		h ^= uint32(res.long[i])
		h *= 16777619
	}
	return m.shards[h%numShards]
}

// heldFor returns the held-set shard of txn.
func (m *Manager) heldFor(txn wal.TxnID) *heldShard {
	return m.held[uint64(txn)%numShards]
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
	// Fast path: grant under the shard mutex alone, then add a newly held
	// resource to the held set. The window where the grant is visible in
	// the shard but not yet in the held set is benign: deadlock DFS reads
	// holders, and ReleaseAll for this transaction cannot run concurrently
	// with its own Acquire (transactions are goroutine-confined).
	sh.mu.Lock()
	fresh, settled := m.tryGrantLocked(sh, txn, res, mode)
	sh.mu.Unlock()
	if !settled {
		// Slow path: must (probably) wait. Re-check under gmu + shard —
		// the holders may have drained between the unlock and here.
		m.gmu.Lock()
		sh.mu.Lock()
		if fresh, settled = m.tryGrantLocked(sh, txn, res, mode); !settled {
			return m.wait(txn, sh, res, mode)
		}
		sh.mu.Unlock()
		m.gmu.Unlock()
	}
	if fresh {
		m.recordHeld(txn, res)
	}
	return nil
}

// wait enqueues txn's request for mode on res and blocks until it is
// settled, or returns ErrDeadlock at once if the wait would close a cycle.
// Caller holds gmu and sh.mu, found the request not grantable, and has
// both released when wait returns.
func (m *Manager) wait(txn wal.TxnID, sh *lockShard, res Resource, mode Mode) error {
	ls := sh.locks[res]
	i := ls.find(txn)
	req := &request{txn: txn, res: res, mode: mode, done: make(chan error, 1)}
	// Upgrades jump the queue ahead of fresh requests so an S-holder
	// upgrading to X cannot deadlock behind a newcomer; a grantable-now
	// upgrade never gets here.
	if i >= 0 {
		req.mode = supremum(ls.holders[i].mode, mode)
		ls.queue = append([]*request{req}, ls.queue...)
	} else {
		ls.queue = append(ls.queue, req)
	}
	m.waits[txn] = req
	m.waiters.Add(1)
	sh.mu.Unlock()
	if m.wouldDeadlockLocked(txn) {
		sh.mu.Lock()
		m.dequeueLocked(sh, ls, req)
		sh.mu.Unlock()
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
// (fresh, settled): settled means txn now holds at least mode, and fresh
// that res was not held by txn before. Fresh requests yield to an existing
// queue (FIFO fairness); upgrades may bypass it.
func (m *Manager) tryGrantLocked(sh *lockShard, txn wal.TxnID, res Resource, mode Mode) (fresh, settled bool) {
	ls := sh.state(res)
	want := mode
	i := ls.find(txn)
	if i >= 0 {
		want = supremum(ls.holders[i].mode, mode)
		if want == ls.holders[i].mode {
			return false, true // already strong enough
		}
	}
	if !m.grantable(ls, txn, want) || (i < 0 && len(ls.queue) > 0) {
		return false, false
	}
	return ls.grant(txn, want), true
}

// TryAcquire is Acquire without blocking: it returns false if the lock is
// not immediately grantable.
func (m *Manager) TryAcquire(txn wal.TxnID, res Resource, mode Mode) bool {
	m.obs.Requests.Inc()
	sh := m.shardFor(res)
	sh.mu.Lock()
	fresh, settled := m.tryGrantLocked(sh, txn, res, mode)
	sh.mu.Unlock()
	if fresh {
		m.recordHeld(txn, res)
	}
	return settled
}

// grantable reports whether txn may hold want on ls given the OTHER holders.
func (m *Manager) grantable(ls *lockState, txn wal.TxnID, want Mode) bool {
	for _, h := range ls.holders {
		if h.txn != txn && !compatible(want, h.mode) {
			return false
		}
	}
	return true
}

// recordHeld appends res to txn's held set, reusing an emptied list.
func (m *Manager) recordHeld(txn wal.TxnID, res Resource) {
	hs := m.heldFor(txn)
	hs.mu.Lock()
	list, ok := hs.sets[txn]
	if n := len(hs.free); !ok && n > 0 {
		list = hs.free[n-1]
		hs.free[n-1] = nil
		hs.free = hs.free[:n-1]
	}
	hs.sets[txn] = append(list, res)
	hs.mu.Unlock()
}

// dequeueLocked removes a pending request from the queue on ls, drops its
// waits entry, and wakes the requests that were queued behind it. Caller
// holds gmu and sh.mu.
func (m *Manager) dequeueLocked(sh *lockShard, ls *lockState, req *request) {
	for i, r := range ls.queue {
		if r == req {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			break
		}
	}
	m.dropWaitLocked(req.txn)
	m.wakeLocked(ls, req.res)
	sh.retireIfIdle(req.res, ls)
}

// dropWaitLocked removes txn's waits entry. Caller holds gmu.
func (m *Manager) dropWaitLocked(txn wal.TxnID) {
	delete(m.waits, txn)
	m.waiters.Add(-1)
}

// ReleaseAll drops every lock txn holds and cancels any pending request.
// Called by the transaction manager at commit or abort (all locks are
// released at transaction termination). A lock with no queue is dropped
// under its shard mutex alone; gmu is taken only to wake a queue or to
// cancel a wait.
func (m *Manager) ReleaseAll(txn wal.TxnID) {
	if m.waiters.Load() > 0 {
		m.gmu.Lock()
		if req, ok := m.waits[txn]; ok {
			sh := m.shardFor(req.res)
			sh.mu.Lock()
			m.dequeueLocked(sh, sh.locks[req.res], req)
			sh.mu.Unlock()
			req.done <- fmt.Errorf("lock: transaction %d terminated while waiting", txn)
		}
		m.gmu.Unlock()
	}
	hs := m.heldFor(txn)
	hs.mu.Lock()
	list := hs.sets[txn]
	delete(hs.sets, txn)
	hs.mu.Unlock()
	for _, res := range list {
		sh := m.shardFor(res)
		sh.mu.Lock()
		ls := sh.locks[res] // held by txn, so not retired
		if len(ls.queue) == 0 {
			ls.drop(txn)
			sh.retireIfIdle(res, ls)
			sh.mu.Unlock()
			continue
		}
		sh.mu.Unlock()
		m.gmu.Lock()
		sh.mu.Lock()
		ls.drop(txn)
		m.wakeLocked(ls, res)
		sh.retireIfIdle(res, ls)
		sh.mu.Unlock()
		m.gmu.Unlock()
	}
	if cap(list) > 0 && cap(list) <= maxRecycled {
		clear(list)
		hs.mu.Lock()
		if len(hs.free) < maxRecycled {
			hs.free = append(hs.free, list[:0])
		}
		hs.mu.Unlock()
	}
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
		if ls.grant(req.txn, req.mode) {
			m.recordHeld(req.txn, res)
		}
		m.dropWaitLocked(req.txn)
		req.done <- nil
	}
}

// holderBlockers appends to dst the holders of ls whose modes conflict
// with req.
func holderBlockers(dst []wal.TxnID, ls *lockState, req *request) []wal.TxnID {
	for _, h := range ls.holders {
		if h.txn != req.txn && !compatible(req.mode, h.mode) {
			dst = append(dst, h.txn)
		}
	}
	return dst
}

// wouldDeadlockLocked runs DFS over the waits-for graph starting from txn.
// A waiter waits for every holder of a conflicting mode and for every
// request queued ahead of it, since a wake grants only a grantable prefix
// of the queue. Caller holds gmu (which pins the wait table and every
// queue); each hop reads its resource's state under that shard's mutex.
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
		ls := sh.locks[req.res]
		blockers := holderBlockers(nil, ls, req)
		for _, ahead := range ls.queue {
			if ahead == req {
				break
			}
			blockers = append(blockers, ahead.txn)
		}
		sh.mu.Unlock()
		for _, b := range blockers {
			if b == start {
				return true
			}
			if !visited[b] {
				visited[b] = true
				if dfs(b) {
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
// shard mutex in turn — the same global-then-shard order every slow path
// uses — so it can run concurrently with Acquire/ReleaseAll without
// deadlock risk. Results are sorted (txn, then resource) for stable
// relation output.
func (m *Manager) SnapshotLocks() (held []HeldLock, waiting []WaitingLock) {
	m.gmu.Lock()
	for _, sh := range m.shards {
		sh.mu.Lock()
		for res, ls := range sh.locks {
			for _, h := range ls.holders {
				held = append(held, HeldLock{Txn: h.txn, Res: res, Mode: h.mode})
			}
		}
		sh.mu.Unlock()
	}
	for txn, req := range m.waits {
		w := WaitingLock{Txn: txn, Res: req.res, Mode: req.mode}
		sh := m.shardFor(req.res)
		sh.mu.Lock()
		w.Blockers = holderBlockers(nil, sh.locks[req.res], req)
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
	sh := m.shardFor(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ls := sh.locks[res]; ls != nil {
		if i := ls.find(txn); i >= 0 {
			return ls.holders[i].mode
		}
	}
	return ModeNone
}

// HeldCount returns how many locks txn currently holds.
func (m *Manager) HeldCount(txn wal.TxnID) int {
	hs := m.heldFor(txn)
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return len(hs.sets[txn])
}
