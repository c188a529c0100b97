package buffer

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dmx/internal/pagefile"
	"dmx/internal/wal"
)

// faultDisk wraps a MemDisk and injects failures on demand.
type faultDisk struct {
	*pagefile.MemDisk
	failRead  bool
	failWrite bool
}

var errInjected = errors.New("injected disk fault")

func (d *faultDisk) ReadPage(id pagefile.PageID, buf []byte) error {
	if d.failRead {
		return errInjected
	}
	return d.MemDisk.ReadPage(id, buf)
}

func (d *faultDisk) WritePage(id pagefile.PageID, buf []byte) error {
	if d.failWrite {
		return errInjected
	}
	return d.MemDisk.WritePage(id, buf)
}

func newPool(t *testing.T, capacity, pages int) (*Pool, *pagefile.MemDisk) {
	t.Helper()
	d := pagefile.NewMemDisk()
	for i := 0; i < pages; i++ {
		if _, err := d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	return NewPool(d, capacity), d
}

func TestPinMissThenHit(t *testing.T) {
	p, _ := newPool(t, 4, 2)
	f, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false)
	f2, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f2, false)
	s := p.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if f != f2 {
		t.Fatal("hit should return the same frame")
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	p, d := newPool(t, 1, 3)
	f, _ := p.Pin(0)
	f.Data[0] = 0x5A
	p.Unpin(f, true)

	// Pinning another page evicts page 0, writing it back.
	g, _ := p.Pin(1)
	p.Unpin(g, false)
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", p.Stats().Evictions)
	}
	buf := make([]byte, pagefile.PageSize)
	d.ReadPage(0, buf)
	if buf[0] != 0x5A {
		t.Fatal("dirty page not written back on eviction")
	}

	// Re-pin page 0: contents must round trip through disk.
	h, _ := p.Pin(0)
	if h.Data[0] != 0x5A {
		t.Fatal("contents lost after eviction")
	}
	p.Unpin(h, false)
}

func TestCleanEvictionSkipsWrite(t *testing.T) {
	p, d := newPool(t, 1, 2)
	f, _ := p.Pin(0)
	p.Unpin(f, false)
	g, _ := p.Pin(1)
	p.Unpin(g, false)
	if d.Stats().Writes != 0 {
		t.Fatal("clean eviction should not write")
	}
}

func TestPoolExhaustion(t *testing.T) {
	p, _ := newPool(t, 2, 3)
	a, _ := p.Pin(0)
	b, _ := p.Pin(1)
	if _, err := p.Pin(2); err == nil {
		t.Fatal("pinning beyond capacity with all frames pinned should fail")
	}
	p.Unpin(a, false)
	c, err := p.Pin(2)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(b, false)
	p.Unpin(c, false)
}

func TestLRUOrder(t *testing.T) {
	p, _ := newPool(t, 2, 3)
	a, _ := p.Pin(0)
	p.Unpin(a, false)
	b, _ := p.Pin(1)
	p.Unpin(b, false)
	// Touch page 0 so page 1 is LRU.
	a2, _ := p.Pin(0)
	p.Unpin(a2, false)
	c, _ := p.Pin(2) // must evict page 1
	p.Unpin(c, false)
	// Page 0 should still be a hit.
	hitsBefore := p.Stats().Hits
	f, _ := p.Pin(0)
	p.Unpin(f, false)
	if p.Stats().Hits != hitsBefore+1 {
		t.Fatal("page 0 should have remained pooled (page 1 was LRU)")
	}
}

func TestNewPage(t *testing.T) {
	p, d := newPool(t, 4, 0)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 0 || d.NumPages() != 1 {
		t.Fatalf("NewPage id=%d pages=%d", f.ID, d.NumPages())
	}
	f.Data[3] = 0x77
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pagefile.PageSize)
	d.ReadPage(0, buf)
	if buf[3] != 0x77 {
		t.Fatal("FlushAll did not persist")
	}
}

func TestMultiplePins(t *testing.T) {
	p, _ := newPool(t, 2, 2)
	f1, _ := p.Pin(0)
	f2, _ := p.Pin(0)
	if f1 != f2 {
		t.Fatal("same page should share a frame")
	}
	p.Unpin(f1, false)
	if p.PinnedCount() != 1 {
		t.Fatal("frame should still be pinned once")
	}
	p.Unpin(f2, false)
	if p.PinnedCount() != 0 {
		t.Fatal("frame should be unpinned")
	}
}

func TestUnpinUnderflowReturnsError(t *testing.T) {
	// Regression: Unpin used to decrement before validating, corrupting the
	// pin count and panicking; now the call is rejected up front and the
	// frame state is untouched.
	p, _ := newPool(t, 2, 1)
	f, _ := p.Pin(0)
	if err := p.Unpin(f, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(f, false); err == nil {
		t.Fatal("expected error on unpin underflow")
	}
	// The frame must still be usable: pin/unpin cycle works and the LRU
	// list holds it exactly once (a double insert would corrupt eviction).
	g, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatal("frame identity lost after rejected unpin")
	}
	if err := p.Unpin(g, false); err != nil {
		t.Fatal(err)
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("pinned = %d after matched unpin", p.PinnedCount())
	}
}

// TestShardedPoolBasics drives a pool large enough to shard (capacity >=
// 64) through miss/hit/evict traffic on many pages.
func TestShardedPoolBasics(t *testing.T) {
	p, _ := newPool(t, 64, 200)
	for round := 0; round < 2; round++ {
		for i := 0; i < 200; i++ {
			f, err := p.Pin(pagefile.PageID(i))
			if err != nil {
				t.Fatalf("pin %d: %v", i, err)
			}
			f.Data[0] = byte(i)
			if err := p.Unpin(f, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Evictions == 0 {
		t.Fatal("200 pages through 64 frames should evict")
	}
	// Every page round-trips its contents.
	for i := 0; i < 200; i++ {
		f, err := p.Pin(pagefile.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if f.Data[0] != byte(i) {
			t.Fatalf("page %d contents lost across eviction", i)
		}
		if err := p.Unpin(f, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALBeforeData asserts the write-ahead rule: a dirty stamped frame
// must not reach disk before the log is forced up to its page LSN.
func TestWALBeforeData(t *testing.T) {
	p, _ := newPool(t, 1, 2)
	var forcedTo []wal.LSN
	p.SetLogForcer(func(lsn wal.LSN) error {
		forcedTo = append(forcedTo, lsn)
		return nil
	})
	f, _ := p.Pin(0)
	f.Data[0] = 1
	p.StampLSN(f, 42)
	if err := p.Unpin(f, true); err != nil {
		t.Fatal(err)
	}
	// Evicting page 0 must force the log to LSN 42 first.
	g, err := p.Pin(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(forcedTo) != 1 || forcedTo[0] != 42 {
		t.Fatalf("eviction forced %v, want [42]", forcedTo)
	}
	g.Data[0] = 2
	if err := p.Unpin(g, true); err != nil {
		t.Fatal(err)
	}
	// FlushAll of an unstamped dirty frame forces conservatively (LSN 0).
	forcedTo = nil
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(forcedTo) != 1 || forcedTo[0] != 0 {
		t.Fatalf("flush forced %v, want [0]", forcedTo)
	}
}

// TestWALBeforeDataForceFailureBlocksWrite asserts a failed log force
// keeps the dirty page off disk.
func TestWALBeforeDataForceFailureBlocksWrite(t *testing.T) {
	d := pagefile.NewMemDisk()
	for i := 0; i < 2; i++ {
		d.Allocate()
	}
	p := NewPool(d, 1)
	p.SetLogForcer(func(lsn wal.LSN) error { return errInjected })
	f, _ := p.Pin(0)
	f.Data[0] = 0x33
	p.StampLSN(f, 7)
	if err := p.Unpin(f, true); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(1); !errors.Is(err, errInjected) {
		t.Fatalf("eviction with failing force = %v, want injected error", err)
	}
	if d.Stats().Writes != 0 {
		t.Fatal("dirty page reached disk before the log was forced")
	}
}

func TestPinMissingPageFails(t *testing.T) {
	p, _ := newPool(t, 2, 1)
	if _, err := p.Pin(42); err == nil {
		t.Fatal("pin of nonexistent page should fail")
	}
	// Failure must not leak a frame.
	f, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false)
}

func TestNewPageExhaustedPoolDoesNotLeakPage(t *testing.T) {
	// Regression: NewPage used to allocate the disk page before securing a
	// frame, so a pool exhausted by pinned frames leaked the new page.
	p, d := newPool(t, 2, 2)
	a, _ := p.Pin(0)
	b, _ := p.Pin(1)
	before := d.NumPages()
	if _, err := p.NewPage(); err == nil {
		t.Fatal("NewPage with all frames pinned should fail")
	}
	if d.NumPages() != before {
		t.Fatalf("failed NewPage leaked a disk page: %d -> %d pages", before, d.NumPages())
	}
	// After releasing a pin the same call must succeed.
	p.Unpin(a, false)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != before+1 {
		t.Fatalf("pages = %d, want %d", d.NumPages(), before+1)
	}
	p.Unpin(f, true)
	p.Unpin(b, false)
}

func TestPinReadFailureDiscardsFrame(t *testing.T) {
	d := &faultDisk{MemDisk: pagefile.NewMemDisk()}
	if _, err := d.Allocate(); err != nil {
		t.Fatal(err)
	}
	p := NewPool(d, 2)
	d.failRead = true
	if _, err := p.Pin(0); !errors.Is(err, errInjected) {
		t.Fatalf("Pin error = %v, want injected fault", err)
	}
	// The half-initialised frame must not stay pooled: a retry after the
	// fault clears must re-read from disk, not hit stale zeroes.
	d.failRead = false
	buf := make([]byte, pagefile.PageSize)
	buf[0] = 0xEE
	if err := d.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	f, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Data[0] != 0xEE {
		t.Fatal("failed Pin left a stale frame in the pool")
	}
	p.Unpin(f, false)
}

func TestEvictionWritebackFailure(t *testing.T) {
	d := &faultDisk{MemDisk: pagefile.NewMemDisk()}
	for i := 0; i < 2; i++ {
		if _, err := d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPool(d, 1)
	f, _ := p.Pin(0)
	f.Data[0] = 0x11
	p.Unpin(f, true)

	d.failWrite = true
	if _, err := p.Pin(1); !errors.Is(err, errInjected) {
		t.Fatalf("Pin error = %v, want injected write-back fault", err)
	}
	// The dirty victim must survive the failed eviction with its data.
	d.failWrite = false
	g, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[0] != 0x11 {
		t.Fatal("dirty frame lost after failed write-back")
	}
	p.Unpin(g, false)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pagefile.PageSize)
	d.ReadPage(0, buf)
	if buf[0] != 0x11 {
		t.Fatal("dirty page never reached disk")
	}
}

func TestFlushAllWriteFailure(t *testing.T) {
	d := &faultDisk{MemDisk: pagefile.NewMemDisk()}
	if _, err := d.Allocate(); err != nil {
		t.Fatal(err)
	}
	p := NewPool(d, 2)
	f, _ := p.Pin(0)
	f.Data[0] = 0x22
	p.Unpin(f, true)
	d.failWrite = true
	if err := p.FlushAll(); !errors.Is(err, errInjected) {
		t.Fatalf("FlushAll error = %v, want injected fault", err)
	}
	// Frame stays dirty; a later flush must still persist it.
	d.failWrite = false
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pagefile.PageSize)
	d.ReadPage(0, buf)
	if buf[0] != 0x22 {
		t.Fatal("page not persisted after retried FlushAll")
	}
}

func TestDiskAccessor(t *testing.T) {
	d := pagefile.NewMemDisk()
	p := NewPool(d, 0) // capacity clamps to 1
	if p.Disk() != d {
		t.Fatal("Disk accessor")
	}
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false)
}

// A pool at capacity replaces pages without allocating: the victim's
// Frame, page buffer included, is recycled for the page that replaces it,
// and the page read or formatted into it is the right one.
func TestReplacementReusesVictimBuffer(t *testing.T) {
	for _, capacity := range []int{8, 128} { // single-shard and sharded
		pages := 10 * capacity
		p, d := newPool(t, capacity, pages)
		buf := make([]byte, pagefile.PageSize)
		for i := 0; i < pages; i++ {
			buf[0], buf[pagefile.PageSize-1] = byte(i), byte(i>>8)
			if err := d.WritePage(pagefile.PageID(i), buf); err != nil {
				t.Fatal(err)
			}
		}
		sweep := func() {
			for i := 0; i < pages; i++ {
				f, err := p.Pin(pagefile.PageID(i))
				if err != nil {
					t.Fatal(err)
				}
				if f.Data[0] != byte(i) || f.Data[pagefile.PageSize-1] != byte(i>>8) {
					t.Fatalf("page %d read into a reused buffer holds another page's bytes", i)
				}
				if err := p.Unpin(f, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		sweep() // warm-up: the pool fills and starts evicting
		before := p.Stats().Misses
		if allocs := testing.AllocsPerRun(3, sweep); allocs != 0 {
			t.Fatalf("capacity %d: a sweep of %d misses allocates %v times after warm-up, want 0", capacity, pages, allocs)
		}
		if misses := p.Stats().Misses - before; misses != 4*int64(pages) {
			t.Fatalf("capacity %d: %d misses in 4 sweeps of %d pages", capacity, misses, pages)
		}
		// A page formatted into a victim's buffer starts zeroed.
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range f.Data {
			if b != 0 {
				t.Fatalf("capacity %d: new page byte %d = %d, want zero", capacity, i, b)
			}
		}
		if err := p.Unpin(f, true); err != nil {
			t.Fatal(err)
		}
	}
}

// A pin that hits, and its unpin, allocate nothing.
func TestPinHitAllocatesNothing(t *testing.T) {
	p, _ := newPool(t, 4, 2)
	f, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(f, false); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		g, err := p.Pin(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin(g, true); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("pin hit + unpin allocates %v times, want 0", allocs)
	}
}

// Goroutines pinning random pages through a pool far smaller than the
// relation recycle frames under one another: every pin must see its own
// page's bytes, and pages written back dirty must read back intact.
func TestPoolConcurrentRecycle(t *testing.T) {
	const (
		pages   = 512
		workers = 4
		rounds  = 2000
	)
	for _, capacity := range []int{64, 16} { // sharded and single-shard
		p, d := newPool(t, capacity, pages)
		buf := make([]byte, pagefile.PageSize)
		for i := 0; i < pages; i++ {
			binary.BigEndian.PutUint32(buf, uint32(i))
			binary.BigEndian.PutUint32(buf[pagefile.PageSize-4:], uint32(i))
			if err := d.WritePage(pagefile.PageID(i), buf); err != nil {
				t.Fatal(err)
			}
		}
		// Byte 4 of page i counts the dirty writes to it; page i is only
		// written by worker i%workers, so each worker knows its pages' counts.
		var wg sync.WaitGroup
		counts := make([][pages]byte, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w) + 1))
				for r := 0; r < rounds; r++ {
					id := rng.Intn(pages)
					f, err := p.Pin(pagefile.PageID(id))
					if err != nil {
						t.Error(err)
						return
					}
					head := binary.BigEndian.Uint32(f.Data)
					tail := binary.BigEndian.Uint32(f.Data[pagefile.PageSize-4:])
					if head != uint32(id) || tail != uint32(id) || f.ID != pagefile.PageID(id) {
						t.Errorf("pin of page %d sees frame %d holding page %d/%d", id, f.ID, head, tail)
					}
					write := id%workers == w
					if write {
						if f.Data[4] != counts[w][id] {
							t.Errorf("page %d: write count %d, want %d", id, f.Data[4], counts[w][id])
						}
						counts[w][id]++
						f.Data[4] = counts[w][id]
					}
					if err := p.Unpin(f, write); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if n := p.PinnedCount(); n != 0 {
			t.Fatalf("capacity %d: %d frames still pinned", capacity, n)
		}
		if s := p.Stats(); s.Hits+s.Misses != workers*rounds {
			t.Fatalf("capacity %d: %d hits + %d misses, want %d pins", capacity, s.Hits, s.Misses, workers*rounds)
		}
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < pages; id++ {
			if err := d.ReadPage(pagefile.PageID(id), buf); err != nil {
				t.Fatal(err)
			}
			if got, want := buf[4], counts[id%workers][id]; got != want {
				t.Fatalf("capacity %d: page %d on disk has write count %d, want %d", capacity, id, got, want)
			}
		}
	}
}
