// Package buffer implements the shared buffer pool.
//
// Storage methods and attachments with paged representations pin pages in
// the pool, read or mutate the frame contents in place (the common
// predicate-evaluation service is invoked on these buffer-resident field
// values, so qualifying records need never be copied out just to be
// filtered), mark them dirty, and unpin them. Clean and dirty frames are
// evicted LRU when the pool is full.
//
// The pool is a steal buffer: dirty pages of uncommitted transactions may
// be written back at eviction. The write-ahead rule therefore applies —
// mutators stamp frames with the LSN of the log record covering the
// mutation (Frame page LSN), and the pool forces the log up to that LSN
// through its log forcer before a dirty page leaves for disk. A dirty
// frame with no stamp (recovery replay, page formatting) conservatively
// forces the whole log.
//
// To keep concurrent pin traffic from serialising on one mutex, the frame
// table and LRU ring are sharded by page ID for pools of at least
// shardThreshold frames; tiny pools (tests, tightly bounded caches) keep a
// single shard so capacity semantics stay exact.
//
// A pin or unpin allocates nothing: the LRU is an intrusive ring threaded
// through the unpinned frames themselves, and a full shard recycles its
// victim's Frame, page buffer included, for the page that replaces it.
package buffer

import (
	"fmt"
	"sort"
	"sync"

	"dmx/internal/fault"
	"dmx/internal/obs"
	"dmx/internal/pagefile"
	"dmx/internal/wal"
)

// Frame is a pooled page. A Frame and all of its fields, ID and Data
// included, are valid only while the caller holds a pin on it: once the
// last pin is released the pool may evict the frame and recycle the same
// Frame for another page.
type Frame struct {
	ID         pagefile.PageID
	Data       []byte
	pins       int
	dirty      bool
	lsn        wal.LSN // page LSN: newest log record covering a mutation
	prev, next *Frame  // links in the shard's LRU ring; nil while pinned
}

// Stats counts pool traffic.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// numShards is the shard count for large pools; shardThreshold is the
// minimum capacity at which sharding engages (below it a single shard
// preserves exact whole-pool capacity and LRU semantics).
const (
	numShards      = 8
	shardThreshold = 64
)

// shard is one hash partition of the frame table with its own LRU ring
// and capacity slice.
type shard struct {
	mu     sync.Mutex
	frames map[pagefile.PageID]*Frame
	lru    Frame // sentinel of the ring of unpinned frames: lru.next is the LRU victim
	cap    int
}

// Pool is a fixed-capacity page buffer over one Disk. It is safe for
// concurrent use; callers serialise access to a given page's contents with
// the lock manager. Traffic counters live in an obs.BufferStats so the
// pool appears in the engine-wide metrics snapshot.
type Pool struct {
	disk     pagefile.Disk
	capacity int
	shards   []*shard

	// Assembly-time configuration, written under every shard lock so
	// hot-path reads under any one shard lock are race-free.
	obs      *obs.BufferStats
	faults   *fault.Injector
	forceLog func(wal.LSN) error // WAL-before-data hook; 0 forces everything

	// Pages allocated by NewPage whose shard had no evictable frame; kept
	// for reuse so a transient full shard does not leak disk pages.
	strandMu sync.Mutex
	stranded []pagefile.PageID
}

// NewPool returns a pool of the given frame capacity over disk.
func NewPool(disk pagefile.Disk, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	if capacity >= shardThreshold {
		n = numShards
	}
	p := &Pool{
		disk:     disk,
		capacity: capacity,
		shards:   make([]*shard, n),
		obs:      &obs.BufferStats{},
	}
	for i := range p.shards {
		c := capacity / n
		if i < capacity%n {
			c++
		}
		sh := &shard{frames: make(map[pagefile.PageID]*Frame, c), cap: c}
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		p.shards[i] = sh
	}
	return p
}

func (p *Pool) shardFor(id pagefile.PageID) *shard {
	return p.shards[uint64(id)%uint64(len(p.shards))]
}

// configure runs fn with every shard lock held, publishing assembly-time
// configuration to all hot paths.
func (p *Pool) configure(fn func()) {
	for _, sh := range p.shards {
		sh.mu.Lock()
	}
	fn()
	for _, sh := range p.shards {
		sh.mu.Unlock()
	}
}

// SetObs points the pool's instrumentation at a shared metric registry.
// Call at assembly, before traffic.
func (p *Pool) SetObs(bs *obs.BufferStats) {
	if bs == nil {
		return
	}
	p.configure(func() { p.obs = bs })
}

// SetFaults arms the pool's dirty-page write-back crash site with a
// fault injector (testing).
func (p *Pool) SetFaults(in *fault.Injector) {
	p.configure(func() { p.faults = in })
}

// SetLogForcer installs the WAL-before-data hook: before a dirty frame is
// written back, the pool calls force with the frame's page LSN (0 for an
// unstamped frame, meaning "force everything appended so far"). Call at
// assembly, before traffic.
func (p *Pool) SetLogForcer(force func(wal.LSN) error) {
	p.configure(func() { p.forceLog = force })
}

// Disk returns the underlying device.
func (p *Pool) Disk() pagefile.Disk { return p.disk }

// PinStats describes what one Pin cost: whether the page missed (was
// read from disk) and whether satisfying it evicted a victim frame.
// Callers that trace their transactions use it to attribute buffer
// faults to the operation that caused them.
type PinStats struct {
	Miss    bool
	Evicted bool
}

// Pin fetches the page into the pool (reading from disk on a miss) and
// pins it. Every Pin must be matched by an Unpin.
func (p *Pool) Pin(id pagefile.PageID) (*Frame, error) {
	f, _, err := p.PinWithStats(id)
	return f, err
}

// PinWithStats is Pin, additionally reporting what the pin cost.
func (p *Pool) PinWithStats(id pagefile.PageID) (*Frame, PinStats, error) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[id]; ok {
		p.obs.Hits.Inc()
		if f.next != nil {
			f.unlink()
		}
		f.pins++
		return f, PinStats{}, nil
	}
	p.obs.Misses.Inc()
	st := PinStats{Miss: true, Evicted: len(sh.frames) >= sh.cap}
	f, err := p.frameLocked(sh)
	if err != nil {
		return nil, st, err
	}
	if err := p.disk.ReadPage(id, f.Data); err != nil {
		return nil, st, err
	}
	f.ID = id
	sh.frames[id] = f
	return f, st, nil
}

// NewPage allocates a fresh zero page on disk and returns it pinned. For a
// single-shard pool a frame is secured before the disk page is allocated,
// so a pool exhausted by pinned frames fails cleanly instead of leaking
// the allocated page; a sharded pool cannot know the target shard before
// allocating, so a page stranded by a full shard is kept and reused by a
// later NewPage instead of leaking.
func (p *Pool) NewPage() (*Frame, error) {
	var (
		sh  *shard
		f   *Frame
		id  pagefile.PageID
		err error
	)
	if len(p.shards) == 1 {
		sh = p.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if f, err = p.frameLocked(sh); err != nil {
			return nil, err
		}
		if id, err = p.disk.Allocate(); err != nil {
			return nil, err
		}
	} else {
		if id, err = p.reservePageID(); err != nil {
			return nil, err
		}
		sh = p.shardFor(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if f, err = p.frameLocked(sh); err != nil {
			p.strandMu.Lock()
			p.stranded = append(p.stranded, id)
			p.strandMu.Unlock()
			return nil, err
		}
	}
	clear(f.Data)
	f.ID, f.dirty = id, true
	sh.frames[id] = f
	return f, nil
}

// reservePageID reuses a stranded page if one exists, else allocates.
func (p *Pool) reservePageID() (pagefile.PageID, error) {
	p.strandMu.Lock()
	if n := len(p.stranded); n > 0 {
		id := p.stranded[n-1]
		p.stranded = p.stranded[:n-1]
		p.strandMu.Unlock()
		return id, nil
	}
	p.strandMu.Unlock()
	return p.disk.Allocate()
}

// frameLocked returns a pinned frame for a page about to join sh, with
// undefined Data contents and not yet in the frame table: a shard below
// capacity allocates one, a full shard evicts its LRU victim and recycles
// the victim's Frame and page buffer, so a pool at capacity replaces pages
// without allocating. Caller holds sh.mu.
func (p *Pool) frameLocked(sh *shard) (*Frame, error) {
	if len(sh.frames) < sh.cap {
		return &Frame{Data: make([]byte, pagefile.PageSize), pins: 1}, nil
	}
	f, err := p.evictLocked(sh)
	if err != nil {
		return nil, err
	}
	*f = Frame{Data: f.Data, pins: 1}
	return f, nil
}

// evictLocked writes back sh's LRU victim and drops it from the ring and
// the frame table, returning it for reuse (nothing may reference an
// unpinned frame). Dirty victims are subject to the write-ahead rule: the
// log is forced up to the victim's page LSN before the page reaches disk.
// Caller holds sh.mu.
func (p *Pool) evictLocked(sh *shard) (*Frame, error) {
	victim := sh.lru.next
	if victim == &sh.lru {
		return nil, fmt.Errorf("buffer: pool exhausted: all %d frames of the shard pinned (pool capacity %d)", sh.cap, p.capacity)
	}
	if victim.dirty {
		if err := p.forceForLocked(victim); err != nil {
			return nil, err
		}
		if err := p.faults.Hit(fault.SiteBufFlush); err != nil {
			return nil, err
		}
		if err := p.disk.WritePage(victim.ID, victim.Data); err != nil {
			return nil, err
		}
		victim.dirty = false
	}
	victim.unlink()
	delete(sh.frames, victim.ID)
	p.obs.Evictions.Inc()
	return victim, nil
}

// forceForLocked honours WAL-before-data for one dirty frame.
func (p *Pool) forceForLocked(f *Frame) error {
	if p.forceLog == nil {
		return nil
	}
	if err := p.forceLog(f.lsn); err != nil {
		return fmt.Errorf("buffer: force log for page %d: %w", f.ID, err)
	}
	return nil
}

// unlink takes an unpinned frame out of its shard's LRU ring.
func (f *Frame) unlink() {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// Unpin releases one pin; dirty records that the caller mutated the frame.
// Fully unpinned frames join the most-recently-used end of the LRU ring
// and become eviction candidates; the caller must not touch f afterwards.
// Unpinning a frame with no pins is reported as an error without
// corrupting the pin count or the LRU ring.
func (p *Pool) Unpin(f *Frame, dirty bool) error {
	sh := p.shardFor(f.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f.pins <= 0 {
		return fmt.Errorf("buffer: unpin of unpinned frame %d", f.ID)
	}
	if dirty {
		f.dirty = true
	}
	f.pins--
	if f.pins == 0 {
		f.prev, f.next = sh.lru.prev, &sh.lru
		f.prev.next, sh.lru.prev = f, f
	}
	return nil
}

// StampLSN records that the log record at lsn covers the caller's mutation
// of f. The pool forces the log through the newest stamp before the frame
// is written back (write-ahead rule). Call while the frame is pinned.
func (p *Pool) StampLSN(f *Frame, lsn wal.LSN) {
	sh := p.shardFor(f.ID)
	sh.mu.Lock()
	if lsn > f.lsn {
		f.lsn = lsn
	}
	sh.mu.Unlock()
}

// FlushAll writes every dirty frame back to disk (frames stay pooled),
// forcing the log ahead of the writes per the write-ahead rule.
func (p *Pool) FlushAll() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		err := p.flushShardLocked(sh)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *Pool) flushShardLocked(sh *shard) error {
	// One log force covers the shard: force to the newest stamp, or the
	// whole log if any dirty frame is unstamped.
	if p.forceLog != nil {
		var maxLSN wal.LSN
		unstamped := false
		dirty := false
		for _, f := range sh.frames {
			if !f.dirty {
				continue
			}
			dirty = true
			if f.lsn == 0 {
				unstamped = true
			} else if f.lsn > maxLSN {
				maxLSN = f.lsn
			}
		}
		if dirty {
			if unstamped {
				maxLSN = 0
			}
			if err := p.forceLog(maxLSN); err != nil {
				return fmt.Errorf("buffer: force log before flush: %w", err)
			}
		}
	}
	for _, f := range sh.frames {
		if f.dirty {
			if err := p.faults.Hit(fault.SiteBufFlush); err != nil {
				return err
			}
			if err := p.disk.WritePage(f.ID, f.Data); err != nil {
				return err
			}
			f.dirty = false
			p.obs.Flushes.Inc()
		}
	}
	return nil
}

// Stats returns cumulative pool statistics.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:      p.obs.Hits.Load(),
		Misses:    p.obs.Misses.Load(),
		Evictions: p.obs.Evictions.Load(),
	}
}

// FrameInfo is one sys.stat_buffer row, a resident buffer frame: which
// disk page it caches and its pin/dirty state. The tags name the columns.
type FrameInfo struct {
	Page   pagefile.PageID `json:"page"`
	Shard  int             `json:"shard"`
	Pins   int             `json:"pins"`
	Pinned bool            `json:"pinned"`
	Dirty  bool            `json:"dirty"`
	LSN    wal.LSN         `json:"lsn"`
}

// FrameInfos returns a point-in-time description of every resident frame,
// shard by shard (each shard is internally consistent; the pool-wide view
// may be torn across shards while pins churn). Sorted by page ID.
func (p *Pool) FrameInfos() []FrameInfo {
	var out []FrameInfo
	for i, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			out = append(out, FrameInfo{
				Page:   f.ID,
				Shard:  i,
				Pins:   f.pins,
				Pinned: f.pins > 0,
				Dirty:  f.dirty,
				LSN:    f.lsn,
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// PinnedCount returns the number of frames currently pinned (for tests).
func (p *Pool) PinnedCount() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.pins > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
