package lock

import (
	"encoding/binary"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmx/internal/obs"
	"dmx/internal/wal"
)

func TestCompatibilityMatrix(t *testing.T) {
	type row struct {
		a, b Mode
		want bool
	}
	cases := []row{
		{ModeIS, ModeIS, true}, {ModeIS, ModeIX, true}, {ModeIS, ModeS, true}, {ModeIS, ModeX, false},
		{ModeIX, ModeIS, true}, {ModeIX, ModeIX, true}, {ModeIX, ModeS, false}, {ModeIX, ModeX, false},
		{ModeS, ModeIS, true}, {ModeS, ModeIX, false}, {ModeS, ModeS, true}, {ModeS, ModeX, false},
		{ModeX, ModeIS, false}, {ModeX, ModeIX, false}, {ModeX, ModeS, false}, {ModeX, ModeX, false},
		{ModeNone, ModeX, true},
		// SIX admits concurrent IS readers and nothing stronger.
		{ModeSIX, ModeIS, true}, {ModeSIX, ModeIX, false}, {ModeSIX, ModeS, false},
		{ModeSIX, ModeSIX, false}, {ModeSIX, ModeX, false}, {ModeSIX, ModeNone, true},
		{ModeIS, ModeSIX, true}, {ModeIX, ModeSIX, false}, {ModeS, ModeSIX, false},
		{ModeX, ModeSIX, false},
	}
	for _, c := range cases {
		if got := compatible(c.a, c.b); got != c.want {
			t.Errorf("compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSupremum(t *testing.T) {
	if supremum(ModeS, ModeS) != ModeS {
		t.Error("S∨S")
	}
	if supremum(ModeIS, ModeX) != ModeX {
		t.Error("IS∨X")
	}
	if supremum(ModeIX, ModeS) != ModeSIX || supremum(ModeS, ModeIX) != ModeSIX {
		t.Error("IX∨S should promote to SIX")
	}
	if supremum(ModeSIX, ModeIX) != ModeSIX || supremum(ModeS, ModeSIX) != ModeSIX {
		t.Error("SIX absorbs IX and S")
	}
	if supremum(ModeSIX, ModeX) != ModeX {
		t.Error("SIX∨X")
	}
}

// TestSIXAdmitsISReaders is the regression test for the old IX∨S = X
// over-approximation: a reader that upgrades to intention-write must not
// block concurrent intention-read transactions.
func TestSIXAdmitsISReaders(t *testing.T) {
	m := NewManager()
	res := RelResource(7)
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, res, ModeIX); err != nil {
		t.Fatal(err) // upgrade in place: S ∨ IX = SIX
	}
	if got := m.HeldMode(1, res); got != ModeSIX {
		t.Fatalf("held mode after upgrade = %v, want SIX", got)
	}

	// Concurrent IS readers proceed without waiting.
	const readers = 4
	done := make(chan error, readers)
	for i := 0; i < readers; i++ {
		id := wal.TxnID(10 + i)
		go func() { done <- m.Acquire(id, res, ModeIS) }()
	}
	for i := 0; i < readers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second):
			t.Fatal("IS reader blocked under SIX")
		}
	}

	// A fresh IX writer must still wait for the SIX holder.
	if m.TryAcquire(20, res, ModeIX) {
		t.Fatal("IX granted alongside SIX")
	}
	ixDone := make(chan error, 1)
	go func() { ixDone <- m.Acquire(20, res, ModeIX) }()
	select {
	case <-ixDone:
		t.Fatal("IX granted while SIX held")
	case <-time.After(20 * time.Millisecond):
	}
	for i := 0; i < readers; i++ {
		m.ReleaseAll(wal.TxnID(10 + i))
	}
	m.ReleaseAll(1)
	if err := <-ixDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(20)
}

func TestSharedThenExclusiveBlocks(t *testing.T) {
	m := NewManager()
	res := RelResource(1)
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, ModeS); err != nil {
		t.Fatal(err) // S is shared
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(3, res, ModeX) }()
	select {
	case <-done:
		t.Fatal("X granted while S held")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case <-done:
		t.Fatal("X granted while one S still held")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.HeldMode(3, res) != ModeX {
		t.Fatal("txn 3 should hold X")
	}
	m.ReleaseAll(3)
}

func TestReacquireAndUpgrade(t *testing.T) {
	m := NewManager()
	res := RelResource(2)
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	// Re-acquire same mode: no-op.
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	// Upgrade in place when alone.
	if err := m.Acquire(1, res, ModeX); err != nil {
		t.Fatal(err)
	}
	if m.HeldMode(1, res) != ModeX {
		t.Fatalf("mode = %v", m.HeldMode(1, res))
	}
	// Downgrade attempts keep the stronger mode.
	if err := m.Acquire(1, res, ModeIS); err != nil {
		t.Fatal(err)
	}
	if m.HeldMode(1, res) != ModeX {
		t.Fatal("mode should remain X")
	}
	m.ReleaseAll(1)
	if m.HeldCount(1) != 0 {
		t.Fatal("HeldCount after release")
	}
}

func TestUpgradeJumpsQueue(t *testing.T) {
	m := NewManager()
	res := RelResource(3)
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, ModeS); err != nil {
		t.Fatal(err)
	}
	// Fresh X waits.
	xDone := make(chan error, 1)
	go func() { xDone <- m.Acquire(3, res, ModeX) }()
	time.Sleep(10 * time.Millisecond)
	// Holder 1 upgrades; must be served before the queued fresh X.
	upDone := make(chan error, 1)
	go func() { upDone <- m.Acquire(1, res, ModeX) }()
	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll(2)
	if err := <-upDone; err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	select {
	case <-xDone:
		t.Fatal("fresh X should still wait behind upgraded holder")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-xDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}

func TestIntentModesShare(t *testing.T) {
	m := NewManager()
	res := RelResource(4)
	if err := m.Acquire(1, res, ModeIX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, ModeIX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(3, res, ModeIS); err != nil {
		t.Fatal(err)
	}
	if m.TryAcquire(4, res, ModeS) {
		t.Fatal("S should not coexist with IX")
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if !m.TryAcquire(4, res, ModeS) {
		t.Fatal("S should coexist with IS")
	}
	m.ReleaseAll(3)
	m.ReleaseAll(4)
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	a, b := RelResource(10), RelResource(11)
	if err := m.Acquire(1, a, ModeX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, b, ModeX); err != nil {
		t.Fatal(err)
	}
	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(1, b, ModeX) }()
	time.Sleep(20 * time.Millisecond) // let txn 1 queue
	// txn 2 requesting a closes the cycle: 2→1→2. Victim is txn 2.
	err := m.Acquire(2, a, ModeX)
	if err != ErrDeadlock {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	// Victim aborts; txn 1 proceeds.
	m.ReleaseAll(2)
	if err := <-got1; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
}

func TestUpgradeDeadlock(t *testing.T) {
	m := NewManager()
	res := RelResource(20)
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, ModeS); err != nil {
		t.Fatal(err)
	}
	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(1, res, ModeX) }()
	time.Sleep(20 * time.Millisecond)
	// Second upgrader closes the cycle.
	if err := m.Acquire(2, res, ModeX); err != ErrDeadlock {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	m.ReleaseAll(2)
	if err := <-got1; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
}

func TestReleaseAllCancelsWaiter(t *testing.T) {
	m := NewManager()
	res := RelResource(30)
	if err := m.Acquire(1, res, ModeX); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(2, res, ModeX) }()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(2) // txn 2 aborted while waiting
	if err := <-got; err == nil {
		t.Fatal("cancelled waiter should get an error")
	}
	m.ReleaseAll(1)
	// Resource must be fully free now.
	if !m.TryAcquire(3, res, ModeX) {
		t.Fatal("resource should be free")
	}
	m.ReleaseAll(3)
}

func TestTryAcquire(t *testing.T) {
	m := NewManager()
	res := KeyResource(1, []byte("k"))
	if !m.TryAcquire(1, res, ModeX) {
		t.Fatal("first TryAcquire should succeed")
	}
	if m.TryAcquire(2, res, ModeS) {
		t.Fatal("conflicting TryAcquire should fail")
	}
	if !m.TryAcquire(1, res, ModeS) {
		t.Fatal("held-stronger TryAcquire should succeed")
	}
	m.ReleaseAll(1)
}

func TestKeyVsRelationResourcesIndependent(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, RelResource(5), ModeIX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, KeyResource(5, []byte("a")), ModeX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, RelResource(5), ModeIX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, KeyResource(5, []byte("b")), ModeX); err != nil {
		t.Fatal(err) // different key: no conflict
	}
	if m.TryAcquire(2, KeyResource(5, []byte("a")), ModeX) {
		t.Fatal("same key should conflict")
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
}

func TestConcurrentIncrementSerialises(t *testing.T) {
	m := NewManager()
	res := RelResource(99)
	var counter int64
	var wg sync.WaitGroup
	deadlocks := int64(0)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			txn := wal.TxnID(id + 1)
			for i := 0; i < 50; i++ {
				if err := m.Acquire(txn, res, ModeX); err != nil {
					atomic.AddInt64(&deadlocks, 1)
					m.ReleaseAll(txn)
					continue
				}
				v := atomic.LoadInt64(&counter)
				time.Sleep(time.Microsecond)
				atomic.StoreInt64(&counter, v+1)
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	if got := atomic.LoadInt64(&counter) + deadlocks; got != 16*50 {
		t.Fatalf("lost updates: counter+deadlocks = %d, want %d", got, 16*50)
	}
	if deadlocks != 0 {
		t.Fatalf("single-resource X locking cannot deadlock, got %d", deadlocks)
	}
}

func TestModeAndResourceStrings(t *testing.T) {
	for _, mo := range []Mode{ModeNone, ModeIS, ModeIX, ModeS, ModeX, Mode(77)} {
		if mo.String() == "" {
			t.Error("empty mode name")
		}
	}
	if RelResource(1).String() == "" || KeyResource(1, []byte("x")).String() == "" {
		t.Error("empty resource name")
	}
}

func TestHeldModeNotHeld(t *testing.T) {
	m := NewManager()
	if m.HeldMode(1, RelResource(1)) != ModeNone {
		t.Fatal("unheld should be ModeNone")
	}
}

// TestLockMetrics verifies the manager records waits, wait time, queue
// depth, and deadlocks into its obs registry.
func TestLockMetrics(t *testing.T) {
	m := NewManager()
	st := &obs.LockStats{}
	m.SetObs(st)
	res := RelResource(3)
	if err := m.Acquire(1, res, ModeX); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, res, ModeX) }()
	for st.Queue.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if st.Requests.Load() != 2 || st.Waits.Load() != 1 {
		t.Fatalf("requests=%d waits=%d", st.Requests.Load(), st.Waits.Load())
	}
	if st.Queue.Load() != 0 || st.Queue.Max() != 1 {
		t.Fatalf("queue=%d max=%d", st.Queue.Load(), st.Queue.Max())
	}
	if st.WaitTime.Snapshot().Count != 1 {
		t.Fatalf("wait time samples = %d", st.WaitTime.Snapshot().Count)
	}

	// A deadlock victim is counted.
	a, b := RelResource(10), RelResource(11)
	m.Acquire(5, a, ModeX)
	m.Acquire(6, b, ModeX)
	errCh := make(chan error, 1)
	go func() { errCh <- m.Acquire(5, b, ModeX) }()
	for st.Queue.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := m.Acquire(6, a, ModeX); err != ErrDeadlock {
		t.Fatalf("want deadlock, got %v", err)
	}
	m.ReleaseAll(6)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(5)
	if st.Deadlocks.Load() != 1 {
		t.Fatalf("deadlocks = %d", st.Deadlocks.Load())
	}
}

// waitForWaiter polls until txn has a pending entry in the wait table.
func waitForWaiter(t *testing.T, m *Manager, txn wal.TxnID) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		m.gmu.Lock()
		_, waiting := m.waits[txn]
		m.gmu.Unlock()
		if waiting {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("txn %d never started waiting", txn)
}

// Regression: the granter must remove the wait-table entry before
// signalling the waiter. The sharded deadlock DFS follows waits[t].res
// without re-checking queue membership, so a stale entry left for the
// waiter to clean up after it resumes would be a phantom waits-for edge
// visible to concurrent detection.
func TestGrantClearsWaitTableBeforeSignal(t *testing.T) {
	m := NewManager()
	res := RelResource(70)
	if err := m.Acquire(1, res, ModeX); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, res, ModeX) }()
	waitForWaiter(t, m, 2)
	m.ReleaseAll(1)
	// ReleaseAll granted txn 2 synchronously; its wait entry must already
	// be gone even though the waiter goroutine may not have resumed yet.
	m.gmu.Lock()
	_, waiting := m.waits[2]
	m.gmu.Unlock()
	if waiting {
		t.Fatal("granted transaction still in wait table")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
}

// Regression: a grantable-now upgrade must be served immediately even with
// a newcomer queued, not enqueued behind it — the newcomer waits for the
// holder, so queuing the holder's upgrade behind it would deadlock two
// transactions that have no cycle.
func TestUpgradeGrantableNowBypassesQueue(t *testing.T) {
	m := NewManager()
	res := RelResource(71)
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	newcomer := make(chan error, 1)
	go func() { newcomer <- m.Acquire(2, res, ModeX) }()
	waitForWaiter(t, m, 2)
	// Sole holder upgrades S→X with the newcomer queued: immediate grant.
	if err := m.Acquire(1, res, ModeX); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	if got := m.HeldMode(1, res); got != ModeX {
		t.Fatalf("holder mode = %v", got)
	}
	m.ReleaseAll(1)
	if err := <-newcomer; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
}

// TestShardStorm exercises the sharded fast path: many goroutines acquire
// and release disjoint key resources (no contention) plus one contended
// resource, under the race detector.
func TestShardStorm(t *testing.T) {
	m := NewManager()
	hot := RelResource(99)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				txn := wal.TxnID(1 + g*1000 + i)
				priv := KeyResource(50, []byte{byte(g), byte(i)})
				if err := m.Acquire(txn, priv, ModeX); err != nil {
					t.Error(err)
					return
				}
				if err := m.Acquire(txn, hot, ModeS); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					// Occasional upgrade on the hot resource; deadlock
					// between two upgraders is legitimate — retry.
					if err := m.Acquire(txn, hot, ModeX); err != nil && err != ErrDeadlock {
						t.Error(err)
						return
					}
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	for i := range m.shards {
		m.shards[i].mu.Lock()
		if n := len(m.shards[i].locks); n != 0 {
			t.Errorf("shard %d retains %d lock states", i, n)
		}
		m.shards[i].mu.Unlock()
	}
}

// Regression: a waiter is blocked by every request queued ahead of it, not
// only by incompatible holders, so a cycle can run through queue order.
// Here T3's S is compatible with T1's S but queues behind T2's X, which
// waits for T1; when T1 then waits for T3 the cycle T1→T3→T2→T1 must
// choose a victim instead of blocking all three.
func TestDeadlockThroughQueueOrder(t *testing.T) {
	m := NewManager()
	r, q := RelResource(80), RelResource(81)
	if err := m.Acquire(1, r, ModeS); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(3, q, ModeX); err != nil {
		t.Fatal(err)
	}
	got2, got3 := make(chan error, 1), make(chan error, 1)
	go func() { got2 <- m.Acquire(2, r, ModeX) }()
	waitForWaiter(t, m, 2)
	go func() { got3 <- m.Acquire(3, r, ModeS) }()
	waitForWaiter(t, m, 3)
	got1 := make(chan error, 1)
	go func() { got1 <- m.Acquire(1, q, ModeX) }()
	select {
	case err := <-got1:
		if err != ErrDeadlock {
			t.Fatalf("T1 closing the cycle: want ErrDeadlock, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cycle through queue order chose no victim")
	}
	m.ReleaseAll(1)
	if err := <-got2; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-got3; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}

// Regression: removing a queued request must wake the requests behind it.
// T3's S is compatible with the held S and queued only behind T2's X; when
// T2 terminates while waiting, T3 is granted.
func TestCancelledWaiterWakesFollowers(t *testing.T) {
	m := NewManager()
	res := RelResource(82)
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	got2, got3 := make(chan error, 1), make(chan error, 1)
	go func() { got2 <- m.Acquire(2, res, ModeX) }()
	waitForWaiter(t, m, 2)
	go func() { got3 <- m.Acquire(3, res, ModeS) }()
	waitForWaiter(t, m, 3)
	m.ReleaseAll(2)
	if err := <-got2; err == nil {
		t.Fatal("cancelled waiter should get an error")
	}
	select {
	case err := <-got3:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower stranded behind a cancelled request")
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
}

// lockTxn runs the lock traffic of a small write transaction: IX on the
// relation, X on each key, the first key again, then release.
func lockTxn(m *Manager, txn wal.TxnID, rel Resource, keys []Resource) error {
	if err := m.Acquire(txn, rel, ModeIX); err != nil {
		return err
	}
	for _, k := range keys {
		if err := m.Acquire(txn, k, ModeX); err != nil {
			return err
		}
	}
	if err := m.Acquire(txn, keys[0], ModeX); err != nil {
		return err
	}
	m.ReleaseAll(txn)
	return nil
}

func keyResources(rel uint32, prefix byte, n int) []Resource {
	keys := make([]Resource, n)
	for i := range keys {
		keys[i] = KeyResource(rel, []byte{prefix, byte(i)})
	}
	return keys
}

// TestLockAllocations pins the uncontended write transaction's lock
// traffic at zero allocations once the shards' recycled states are warm,
// its resources built inside the measured loop: four 8-byte record keys,
// as the heap's, and a unique attachment's 15-byte value lock.
func TestLockAllocations(t *testing.T) {
	m := NewManager()
	txn := wal.TxnID(0)
	var key [8]byte
	value := []byte{1, 0, 0, 0, 0, 0, 0, 0, 42} // 9 bytes, the length of an encoded INT
	seq := []byte{0, 0, 0, 1}
	keys := make([]Resource, 5)
	got := testing.AllocsPerRun(200, func() {
		txn++
		for i := range 4 {
			binary.BigEndian.PutUint64(key[:], uint64(i))
			keys[i] = KeyResource(1, key[:])
		}
		keys[4] = ExtResource(1, 3, seq, value)
		if err := lockTxn(m, txn, RelResource(1), keys); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("lock transaction: %v allocations, want 0", got)
	}
}

// TestResourceNames: a resource is equal to another exactly when its
// relation and name are, whichever constructor built it and whether the
// name is held inline or not, and it hashes to the same shard.
func TestResourceNames(t *testing.T) {
	m := NewManager()
	for _, n := range []int{1, inlineName - 2, inlineName - 1, inlineName + 1, 40} {
		name := make([]byte, n)
		for i := range name {
			name[i] = byte(i + 1)
		}
		ext := ExtResource(7, 0xAB, name[:n/2], name[n/2:])
		key := KeyResource(7, append([]byte{0xFF, 0xAB}, name...))
		if ext != key || m.shardFor(ext) != m.shardFor(key) || ext.String() != key.String() {
			t.Errorf("%d-byte name: ExtResource %v and KeyResource %v differ", n+2, ext, key)
		}
		longer := KeyResource(7, append([]byte{0xFF, 0xAB}, append(name, 0)...))
		other := KeyResource(8, append([]byte{0xFF, 0xAB}, name...))
		if longer == key || other == key {
			t.Errorf("%d-byte name: %v equals %v or %v", n+2, key, longer, other)
		}
	}
	if r := KeyResource(7, nil); r != RelResource(7) || r.String() != "rel(7)" {
		t.Errorf("an empty key names %v", r)
	}
	if got := KeyResource(7, []byte{0xAB, 0x01}).String(); got != "rel(7)/key(ab01)" {
		t.Errorf("String = %q", got)
	}
}

// TestReleasedStatesAreBounded: a bulk transaction's lock states and held
// list are not all kept for reuse after it ends.
func TestReleasedStatesAreBounded(t *testing.T) {
	m := NewManager()
	const n = 100000
	bulkLock(t, m, 1, n)
	if got := m.HeldCount(1); got != n {
		t.Fatalf("HeldCount = %d, want %d", got, n)
	}
	m.ReleaseAll(1)
	if got := m.HeldCount(1); got != 0 {
		t.Fatalf("HeldCount after release = %d", got)
	}
	for i := range m.shards {
		sh, hs := m.shards[i], m.held[i]
		if len(sh.locks) != 0 || len(sh.free) > maxRecycled {
			t.Errorf("shard %d: %d live states, %d recycled (cap %d)", i, len(sh.locks), len(sh.free), maxRecycled)
		}
		if len(hs.free) > maxRecycled {
			t.Errorf("held shard %d: %d recycled lists (cap %d)", i, len(hs.free), maxRecycled)
		}
		for _, list := range hs.free {
			if cap(list) > maxRecycled {
				t.Errorf("held shard %d recycles a list of capacity %d", i, cap(list))
			}
		}
	}
}

// bulkLock has txn take n record locks, as a bulk load does.
func bulkLock(tb testing.TB, m *Manager, txn wal.TxnID, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		if err := m.Acquire(txn, KeyResource(1, []byte{byte(i >> 16), byte(i >> 8), byte(i)}), ModeX); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBulkLockTableIsReplaced: a shard's table that a bulk transaction
// grew is replaced by a fresh one when it empties, and a table that
// never outgrew shrinkAbove is kept.
func TestBulkLockTableIsReplaced(t *testing.T) {
	m := NewManager()
	tables := func() (ptrs [numShards]uintptr) {
		for i, sh := range m.shards {
			ptrs[i] = reflect.ValueOf(sh.locks).Pointer()
		}
		return ptrs
	}
	if err := lockTxn(m, 1, RelResource(1), keyResources(1, 0, 10)); err != nil {
		t.Fatal(err)
	}
	small := tables()
	bulkLock(t, m, 2, 100000)
	grown := tables()
	if grown != small {
		t.Fatal("a table was replaced while it held locks")
	}
	m.ReleaseAll(2)
	for i, ptr := range tables() {
		sh := m.shards[i]
		if ptr == grown[i] || len(sh.locks) != 0 || sh.peak != 0 {
			t.Errorf("shard %d: table kept after a bulk release (%d entries, peak %d)", i, len(sh.locks), sh.peak)
		}
	}
	fresh := tables()
	if err := lockTxn(m, 3, RelResource(1), keyResources(1, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if tables() != fresh {
		t.Error("a small transaction replaced a table")
	}
}

func BenchmarkAcquireRelease(b *testing.B) {
	rel := RelResource(1)
	b.Run("serial", func(b *testing.B) {
		m, keys := NewManager(), keyResources(1, 0, 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := lockTxn(m, wal.TxnID(i+1), rel, keys); err != nil {
				b.Fatal(err)
			}
		}
	})
	// An 11-lock transaction after one bulk transaction took 100 000
	// record locks and released them.
	b.Run("after-bulk", func(b *testing.B) {
		m, keys := NewManager(), keyResources(1, 0, 10)
		bulkLock(b, m, 1, 100000)
		m.ReleaseAll(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := lockTxn(m, wal.TxnID(i+2), rel, keys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		m := NewManager()
		var workers atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			w := workers.Add(1)
			keys := keyResources(1, byte(w), 4) // disjoint per worker
			txn := wal.TxnID(w << 32)
			for pb.Next() {
				txn++
				if err := lockTxn(m, txn, rel, keys); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
