// Package appendsm implements the LSM tiered-ingest storage method for
// high-rate append-mostly workloads (telemetry, audit trails, event
// streams).
//
// Writes land in a mutable memtable; when it passes a size threshold it
// is sealed into an immutable sorted run, and adjacent runs of similar
// size are merged by a tiering compactor (inline or on a background
// goroutine, per relation attribute). Each run carries a bloom filter so
// direct-by-key reads skip runs that cannot hold the key. Updates and
// deletes are regular relation semantics: a delete writes a tombstone
// that masks older runs until a full-depth merge retires it.
//
// Record keys are press sequence numbers assigned at insert. The
// reservation, the WAL append, and the memtable install happen inside one
// critical section: this method originally reserved the key, released the
// latch to log, and re-locked to append, so two inserters could observe
// the same slot — duplicate keys with records at the wrong index.
//
// Durability is the common WAL: every modification is logged before it is
// applied, undo masks the change with the inverse entry, and restart
// recovery replays the checkpoint snapshot plus the log tail into the
// memtable (run shapes are an in-memory performance artifact, not a
// durability one). The flush and compaction transitions declare fault
// sites (lsm.flush, lsm.compact) so the crash matrix can land on
// half-flushed and half-compacted states.
package appendsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dmx/internal/btree"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/fault"
	"dmx/internal/obs"
	"dmx/internal/pagefile"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// Name is the DDL name of the storage method.
const Name = "append"

// Storage attribute defaults: a 1 MiB memtable and a merge whenever four
// adjacent runs share a size tier.
const (
	defaultMemtableBytes = 1 << 20
	defaultFanout        = 4
)

// smConfig is the per-relation tuning carried in the storage descriptor.
type smConfig struct {
	memBytes    int  // memtable flush threshold in payload bytes
	fanout      int  // runs per size tier before a merge triggers
	syncCompact bool // merge inline in the mutating call (deterministic)
}

func parseAttrs(attrs core.AttrList) (smConfig, error) {
	cfg := smConfig{memBytes: defaultMemtableBytes, fanout: defaultFanout}
	if v, ok := attrs["memtable"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("appendsm: memtable must be a positive byte count, got %q", v)
		}
		cfg.memBytes = n
	}
	if v, ok := attrs["fanout"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			return cfg, fmt.Errorf("appendsm: fanout must be an integer >= 2, got %q", v)
		}
		cfg.fanout = n
	}
	if v, ok := attrs["compact"]; ok {
		switch v {
		case "sync":
			cfg.syncCompact = true
		case "background":
			cfg.syncCompact = false
		default:
			return cfg, fmt.Errorf("appendsm: compact must be sync or background, got %q", v)
		}
	}
	return cfg, nil
}

func encodeDesc(cfg smConfig) []byte {
	b := make([]byte, 0, 9)
	b = binary.BigEndian.AppendUint32(b, uint32(cfg.memBytes))
	b = binary.BigEndian.AppendUint32(b, uint32(cfg.fanout))
	if cfg.syncCompact {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

func decodeDesc(b []byte) (smConfig, error) {
	cfg := smConfig{memBytes: defaultMemtableBytes, fanout: defaultFanout}
	if len(b) == 0 { // descriptors from before the method carried tuning
		return cfg, nil
	}
	if len(b) != 9 {
		return cfg, fmt.Errorf("appendsm: bad storage descriptor length %d", len(b))
	}
	cfg.memBytes = int(binary.BigEndian.Uint32(b))
	cfg.fanout = int(binary.BigEndian.Uint32(b[4:]))
	cfg.syncCompact = b[8] == 1
	return cfg, nil
}

func init() {
	core.RegisterStorageMethod(&core.StorageOps{
		ID:               core.SMAppend,
		Name:             Name,
		SnapshotContents: true,
		ValidateAttrs: func(schema *types.Schema, attrs core.AttrList) error {
			if err := attrs.CheckAllowed(Name, "memtable", "fanout", "compact"); err != nil {
				return err
			}
			_, err := parseAttrs(attrs)
			return err
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, attrs core.AttrList) ([]byte, error) {
			cfg, err := parseAttrs(attrs)
			if err != nil {
				return nil, err
			}
			return encodeDesc(cfg), nil
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.StorageInstance, error) {
			cfg, err := decodeDesc(rd.SMDesc)
			if err != nil {
				return nil, err
			}
			return &store{
				env:    env,
				rd:     rd,
				cfg:    cfg,
				mem:    btree.New(),
				faults: env.Faults,
				lsm:    &env.Obs.LSM,
			}, nil
		},
	})
}

// run is one immutable sorted run: press sequences ascending, values
// aligned (nil value = tombstone), plus a bloom filter over the keys.
type run struct {
	keys  []uint64
	vals  [][]byte
	bloom *bloom
	bytes int // sum of value lengths
}

// find returns the value at seq and whether the run holds an entry for it.
func (r *run) find(seq uint64) ([]byte, bool) {
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= seq })
	if i < len(r.keys) && r.keys[i] == seq {
		return r.vals[i], true
	}
	return nil, false
}

// store is the LSM storage instance for one relation.
type store struct {
	env    *core.Env
	rd     *core.RelDesc
	cfg    smConfig
	faults *fault.Injector
	lsm    *obs.LSMStats

	mu       sync.Mutex
	mem      *btree.Tree // seqKey -> encoded record; nil value = tombstone
	memBytes int         // payload bytes resident in the memtable
	runs     []*run      // immutable sorted runs, newest first
	nextSeq  uint64      // next press sequence to assign
	live     int         // records visible (non-tombstone newest versions)
	enc      []byte      // a write's encoded record, reused; the memtable copies it

	compacting atomic.Bool // one merge in flight per store
}

func seqKey(i uint64) types.Key {
	k := make(types.Key, 8)
	binary.BigEndian.PutUint64(k, i)
	return k
}

func keySeq(k types.Key) (uint64, error) {
	if len(k) != 8 {
		return 0, fmt.Errorf("appendsm: bad record key length %d", len(k))
	}
	return binary.BigEndian.Uint64(k), nil
}

// memAdd moves the resident-byte accounting (and its engine-wide gauge).
func (s *store) memAdd(d int) {
	s.memBytes += d
	s.lsm.MemtableBytes.Add(int64(d))
}

// lookupRunsLocked searches the runs newest to oldest for seq, recording
// bloom effectiveness. found distinguishes "tombstone" (nil, true) from
// "no entry anywhere" (nil, false).
func (s *store) lookupRunsLocked(seq uint64) (enc []byte, found bool) {
	for _, r := range s.runs {
		s.lsm.BloomProbes.Inc()
		if !r.bloom.mayContain(seq) {
			s.lsm.BloomSkips.Inc()
			continue
		}
		if v, ok := r.find(seq); ok {
			return v, true
		}
		s.lsm.BloomFalsePositives.Inc()
	}
	return nil, false
}

// lookupLocked returns the newest entry for seq across memtable and runs.
func (s *store) lookupLocked(seq uint64) (enc []byte, found bool) {
	if v, ok := s.mem.Get(seqKey(seq)); ok {
		return v, true
	}
	return s.lookupRunsLocked(seq)
}

// putLocked installs the newest version of seq in the memtable (enc nil =
// tombstone), maintaining the live count against whatever version it
// shadows. A tombstone for a key no run holds deletes the memtable entry
// outright — there is nothing left to mask.
func (s *store) putLocked(seq uint64, enc []byte) {
	if seq >= s.nextSeq {
		s.nextSeq = seq + 1
	}
	k := seqKey(seq)
	prev, inMem := s.mem.Get(k)
	runVal, inRuns := s.lookupRunsLocked(seq)

	priorLive := (inMem && prev != nil) || (!inMem && inRuns && runVal != nil)
	if priorLive && enc == nil {
		s.live--
	} else if !priorLive && enc != nil {
		s.live++
	}

	if inMem {
		s.memAdd(-len(prev))
	}
	if enc == nil && !inRuns {
		if inMem {
			s.mem.Delete(k)
		}
		return
	}
	s.mem.Set(k, enc)
	s.memAdd(len(enc))
}

// Insert implements core.StorageInstance: the ingest path. The sequence
// reservation, the WAL append, and the memtable install form one critical
// section so concurrent inserters cannot observe the same slot.
func (s *store) Insert(tx *txn.Txn, rec types.Record) (types.Key, error) {
	s.mu.Lock()
	s.enc = rec.AppendEncode(s.enc[:0])
	enc := s.enc
	seq := s.nextSeq
	key := seqKey(seq)
	if err := core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModInsert, Key: key, New: rec}); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.nextSeq = seq + 1
	s.mem.Set(key, enc)
	s.memAdd(len(enc))
	s.live++
	err := s.maybeFlushLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := s.maintain(); err != nil {
		return nil, err
	}
	return key, nil
}

// Update implements core.StorageInstance: the newest version in the
// memtable shadows whatever run holds the old one. Keys are stable.
func (s *store) Update(tx *txn.Txn, key types.Key, oldRec, newRec types.Record) (types.Key, error) {
	seq, err := keySeq(key)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if cur, found := s.lookupLocked(seq); !found || cur == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("appendsm: update: %w: press %d", core.ErrNotFound, seq)
	}
	if err := core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModUpdate, Key: key, NewKey: key, Old: oldRec, New: newRec}); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.enc = newRec.AppendEncode(s.enc[:0])
	s.putLocked(seq, s.enc)
	ferr := s.maybeFlushLocked()
	s.mu.Unlock()
	if ferr != nil {
		return nil, ferr
	}
	if err := s.maintain(); err != nil {
		return nil, err
	}
	return key, nil
}

// Delete implements core.StorageInstance: a tombstone masks the record
// until a full-depth merge retires both.
func (s *store) Delete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	seq, err := keySeq(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if cur, found := s.lookupLocked(seq); !found || cur == nil {
		s.mu.Unlock()
		return fmt.Errorf("appendsm: delete: %w: press %d", core.ErrNotFound, seq)
	}
	if err := core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModDelete, Key: key, Old: oldRec}); err != nil {
		s.mu.Unlock()
		return err
	}
	s.putLocked(seq, nil)
	ferr := s.maybeFlushLocked()
	s.mu.Unlock()
	if ferr != nil {
		return ferr
	}
	return s.maintain()
}

// maybeFlushLocked seals the memtable into a run once it passes the
// configured threshold.
func (s *store) maybeFlushLocked() error {
	if s.memBytes < s.cfg.memBytes || s.mem.Len() == 0 {
		return nil
	}
	return s.flushLocked()
}

// flushLocked seals the current memtable into a new newest run. The
// transition is memory-only — durability stays with the WAL — but it is a
// lifecycle boundary recovery must survive, so it declares a fault site.
func (s *store) flushLocked() error {
	if err := s.faults.Hit(fault.SiteLSMFlush); err != nil {
		return err
	}
	n := s.mem.Len()
	r := &run{
		keys:  make([]uint64, 0, n),
		vals:  make([][]byte, 0, n),
		bloom: newBloom(n),
	}
	s.mem.Ascend(nil, func(k, v []byte) bool {
		seq := binary.BigEndian.Uint64(k)
		r.keys = append(r.keys, seq)
		r.vals = append(r.vals, v)
		r.bytes += len(v)
		r.bloom.add(seq)
		return true
	})
	s.runs = append([]*run{r}, s.runs...)
	s.mem = btree.New()
	s.memAdd(-s.memBytes)
	s.lsm.Flushes.Inc()
	s.lsm.FlushedEntries.Add(int64(n))
	s.lsm.Runs.Add(1)
	return nil
}

// tierOf buckets a run by size: tier 0 holds fresh flushes (below
// memtable*fanout bytes), each higher tier is fanout times larger.
func (s *store) tierOf(bytes int) int {
	t := 0
	limit := s.cfg.memBytes * s.cfg.fanout
	for bytes >= limit && t < 30 {
		t++
		limit *= s.cfg.fanout
	}
	return t
}

// pickMergeLocked finds the newest window of at least fanout adjacent
// runs sharing a size tier. Flushes only prepend and merges only replace
// adjacent windows, so same-tier runs stay adjacent.
func (s *store) pickMergeLocked() (lo, hi int, ok bool) {
	i := 0
	for i < len(s.runs) {
		t := s.tierOf(s.runs[i].bytes)
		j := i + 1
		for j < len(s.runs) && s.tierOf(s.runs[j].bytes) == t {
			j++
		}
		if j-i >= s.cfg.fanout {
			return i, j, true
		}
		i = j
	}
	return 0, 0, false
}

// maintain runs the compaction policy after a mutation, without the store
// latch. Sync mode merges inline until the policy is satisfied — the
// deterministic shape the differential fuzzer and crash matrix drive.
// Background mode hands the merge to a single goroutine.
func (s *store) maintain() error {
	if s.cfg.syncCompact {
		if !s.compacting.CompareAndSwap(false, true) {
			return nil // a concurrent mutator is already merging
		}
		defer s.compacting.Store(false)
		for {
			done, err := s.compactOnce(false)
			if err != nil || done {
				return err
			}
		}
	}
	s.mu.Lock()
	_, _, need := s.pickMergeLocked()
	s.mu.Unlock()
	if need && s.compacting.CompareAndSwap(false, true) {
		go func() {
			defer s.compacting.Store(false)
			for {
				// An injected fault is a simulated process death; the dead
				// "process" stops compacting.
				if done, err := s.compactOnce(false); err != nil || done {
					return
				}
			}
		}()
	}
	return nil
}

// compactOnce performs one pick-merge-install cycle. The merge runs on an
// immutable snapshot of the window outside the latch; the install splices
// the merged run back where the window still sits (flushes can only have
// prepended newer runs in the meantime). force merges all runs when the
// tiering policy is quiet (the major compaction CompactNow drives).
func (s *store) compactOnce(force bool) (done bool, err error) {
	s.mu.Lock()
	lo, hi, ok := s.pickMergeLocked()
	if !ok && force && len(s.runs) >= 2 {
		lo, hi, ok = 0, len(s.runs), true
	}
	if !ok {
		s.mu.Unlock()
		return true, nil
	}
	win := append([]*run(nil), s.runs[lo:hi]...)
	// Tombstones may be dropped only when no older run remains below the
	// window to resurrect the deleted key.
	full := hi == len(s.runs)
	s.mu.Unlock()

	merged, dropped := mergeRuns(win, full)
	if err := s.faults.Hit(fault.SiteLSMCompact); err != nil {
		return false, err
	}

	s.mu.Lock()
	at := s.findWindowLocked(win)
	if at < 0 {
		// Another merge consumed part of the window first; re-evaluate.
		s.mu.Unlock()
		return false, nil
	}
	tail := s.runs[at+len(win):]
	head := append([]*run(nil), s.runs[:at]...)
	if len(merged.keys) > 0 {
		head = append(head, merged)
	}
	s.runs = append(head, tail...)
	s.lsm.Compactions.Inc()
	s.lsm.CompactedRuns.Add(int64(len(win)))
	s.lsm.TombstonesDropped.Add(int64(dropped))
	s.lsm.Runs.Add(int64(len(s.runs)) - int64(at+len(win)+len(tail)))
	s.mu.Unlock()
	return false, nil
}

// findWindowLocked locates win (by run identity) as a contiguous window
// of s.runs, or -1 when it is no longer intact.
func (s *store) findWindowLocked(win []*run) int {
	for i := 0; i+len(win) <= len(s.runs); i++ {
		if s.runs[i] != win[0] {
			continue
		}
		match := true
		for j := 1; j < len(win); j++ {
			if s.runs[i+j] != win[j] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

// mergeRuns k-way merges a newest-first window into one run. At equal
// keys the newest (lowest-index) source wins; tombstones are kept as
// masks unless the window reaches the oldest run (full), in which case
// they are retired. dropped counts retired tombstones.
func mergeRuns(win []*run, full bool) (*run, int) {
	total := 0
	for _, r := range win {
		total += len(r.keys)
	}
	out := &run{
		keys:  make([]uint64, 0, total),
		vals:  make([][]byte, 0, total),
		bloom: newBloom(total),
	}
	dropped := 0
	idx := make([]int, len(win))
	for {
		min := uint64(math.MaxUint64)
		any := false
		for i, r := range win {
			if idx[i] < len(r.keys) && (!any || r.keys[idx[i]] < min) {
				min, any = r.keys[idx[i]], true
			}
		}
		if !any {
			break
		}
		var val []byte
		picked := false
		for i, r := range win {
			if idx[i] < len(r.keys) && r.keys[idx[i]] == min {
				if !picked {
					val, picked = r.vals[idx[i]], true
				}
				idx[i]++
			}
		}
		if val == nil && full {
			dropped++
			continue
		}
		out.keys = append(out.keys, min)
		out.vals = append(out.vals, val)
		out.bytes += len(val)
		out.bloom.add(min)
	}
	return out, dropped
}

// CompactNow is a major compaction: it seals the current memtable and
// merges every run down to one, retiring all tombstones (tests and
// maintenance tooling; production relies on maintain's tiering policy).
func (s *store) CompactNow() error {
	s.mu.Lock()
	var ferr error
	if s.mem.Len() > 0 {
		ferr = s.flushLocked()
	}
	s.mu.Unlock()
	if ferr != nil {
		return ferr
	}
	for {
		done, err := s.compactOnce(true)
		if err != nil || done {
			return err
		}
	}
}

// RunCount reports the resident sorted runs (introspection for tests and
// cost estimation).
func (s *store) RunCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// RunInfo describes one resident component of an LSM relation: the
// mutable memtable (Memtable true) or one immutable sorted run. It is a
// sys.stat_lsm row; the tags name the columns.
type RunInfo struct {
	RelID     uint32 `json:"rel_id"`
	Name      string `json:"name"`
	Memtable  bool   `json:"memtable"`
	Pos       int    `json:"run"`  // position among runs, newest first (-1 for the memtable)
	Tier      int    `json:"tier"` // size tier (-1 for the memtable)
	Entries   int    `json:"entries"`
	Bytes     int    `json:"bytes"`
	BloomBits int    `json:"bloom_bits"` // filter size in bits (0 for the memtable)
	MinSeq    uint64 `json:"min_seq"`
	MaxSeq    uint64 `json:"max_seq"`
}

// SysRows lists the relation's sys.stat_lsm rows: one for the memtable
// followed by one per resident run, newest first.
func (s *store) SysRows() []RunInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]RunInfo, 0, len(s.runs)+1)
	infos = append(infos, RunInfo{
		RelID:    s.rd.RelID,
		Name:     s.rd.Name,
		Memtable: true,
		Pos:      -1,
		Tier:     -1,
		Entries:  s.mem.Len(),
		Bytes:    s.memBytes,
	})
	for i, r := range s.runs {
		info := RunInfo{
			RelID:     s.rd.RelID,
			Name:      s.rd.Name,
			Pos:       i,
			Tier:      s.tierOf(r.bytes),
			Entries:   len(r.keys),
			Bytes:     r.bytes,
			BloomBits: len(r.bloom.bits) * 64,
		}
		if n := len(r.keys); n > 0 {
			info.MinSeq = r.keys[0]
			info.MaxSeq = r.keys[n-1]
		}
		infos = append(infos, info)
	}
	return infos
}

// FetchByKey implements core.StorageInstance: memtable first, then runs
// newest to oldest with bloom-filter skips. The filter matches the stored
// bytes, and only the selected fields are decoded.
func (s *store) FetchByKey(tx *txn.Txn, key types.Key, fields []int, filter *expr.Program) (types.Record, error) {
	seq, err := keySeq(key)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	enc, found := s.lookupLocked(seq)
	s.mu.Unlock()
	if !found || enc == nil {
		return nil, fmt.Errorf("appendsm: %w: press %d", core.ErrNotFound, seq)
	}
	q := smutil.CompiledQualifier(filter, fields)
	return q.Fetch(enc)
}

// OpenScan implements core.StorageInstance: press (key) order, merged
// across the memtable and every run.
func (s *store) OpenScan(tx *txn.Txn, opts core.ScanOptions) (core.Scan, error) {
	sc := &scan{store: s, opts: opts, q: smutil.NewQualifier(s.env, opts)}
	if opts.Start != nil {
		start, err := keySeq(opts.Start)
		if err != nil {
			return nil, err
		}
		sc.start = start
	}
	return sc, nil
}

// EstimateCost implements core.StorageInstance. The profile the planner
// sees is read amplification: a key-sequential pass still reads every
// page once but positions in memtable plus every run, and the merge adds
// a log(sources) CPU factor per record. Direct-by-key stays cheap because
// bloom filters keep most runs untouched.
func (s *store) EstimateCost(req core.CostRequest) core.CostEstimate {
	s.mu.Lock()
	bytes := s.memBytes
	for _, r := range s.runs {
		bytes += r.bytes
	}
	sources := 1 + len(s.runs)
	n := s.live
	s.mu.Unlock()
	pages := bytes/pagefile.PageSize + 1
	return core.CostEstimate{
		Usable:      true,
		IO:          float64(pages) + float64(sources-1),
		CPU:         float64(n) * (1 + math.Log2(float64(sources))),
		Selectivity: smutil.RequestSelectivity(req),
	}
}

// RecordCount implements core.StorageInstance.
func (s *store) RecordCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// ApplyLogged implements core.StorageInstance. Undo and redo both write
// the authoritative newest version into the memtable, masking whatever
// runs hold: undo of an insert tombstones it, undo of an update or delete
// restores the old record, redo replays the new state. Recovery never
// flushes — run shapes rebuild from fresh ingest, not from the log.
func (s *store) ApplyLogged(_ wal.TxnID, payload []byte, undo bool) error {
	e, err := smutil.LoggedEffect(payload, undo)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Del != nil {
		seq, err := keySeq(e.Del)
		if err != nil {
			return err
		}
		s.putLocked(seq, nil)
	}
	if e.Put != nil {
		seq, err := keySeq(e.Put)
		if err != nil {
			return err
		}
		s.enc = e.Rec.AppendEncode(s.enc[:0])
		s.putLocked(seq, s.enc)
	}
	return nil
}

var (
	_ core.StorageInstance             = (*store)(nil)
	_ interface{ SysRows() []RunInfo } = (*store)(nil)
)

// scan is a press-order key-sequential access merged across the memtable
// and the runs. The embedded position is the last sequence examined, and
// every Next resumes at the smallest sequence after it, so concurrent
// flushes and compactions (which preserve logical contents) never
// invalidate it.
type scan struct {
	store *store
	opts  core.ScanOptions
	q     smutil.Qualifier
	start uint64 // first candidate before the scan has examined anything
	smutil.Position
}

// ceilingLocked returns the smallest sequence >= from together with its
// newest version (nil = tombstone).
func (s *store) ceilingLocked(from uint64) (seq uint64, enc []byte, ok bool) {
	s.mem.Ascend(seqKey(from), func(k, v []byte) bool {
		seq, enc, ok = binary.BigEndian.Uint64(k), v, true
		return false
	})
	for _, r := range s.runs {
		i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= from })
		if i >= len(r.keys) {
			continue
		}
		// Strictly smaller only: at equal keys the earlier (newer) source
		// already won.
		if !ok || r.keys[i] < seq {
			seq, enc, ok = r.keys[i], r.vals[i], true
		}
	}
	return seq, enc, ok
}

// Next implements core.Scan.
func (sc *scan) Next() (types.Key, types.Record, bool, error) {
	if sc.Closed {
		return nil, nil, false, fmt.Errorf("appendsm: scan is closed")
	}
	from := sc.start
	if sc.Started {
		after, err := keySeq(sc.After)
		if err != nil {
			return nil, nil, false, err
		}
		from = after + 1
	}
	s := sc.store
	for {
		s.mu.Lock()
		seq, enc, ok := s.ceilingLocked(from)
		s.mu.Unlock()
		if !ok {
			return nil, nil, false, nil
		}
		key := seqKey(seq)
		if sc.opts.End != nil && key.Compare(sc.opts.End) >= 0 {
			return nil, nil, false, nil
		}
		sc.Started, sc.After, from = true, key, seq+1
		if enc == nil {
			continue // tombstone
		}
		rec, ok, err := sc.q.Encoded(enc)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return key, rec, true, nil
		}
	}
}
