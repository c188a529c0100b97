// Package stats implements the statistics-maintenance attachment. The
// paper notes attachments "may have associated storage … even to maintain
// statistics about relations"; this one keeps a transactionally correct
// record count plus per-column distribution summaries the query planner
// consults for cardinality estimates: minimum/maximum watermarks, an
// approximate distinct count (a small HyperLogLog-style sketch), a null
// counter, and a reservoir sample from which equi-depth histogram bounds
// are derived at snapshot time.
//
// The count is logged (so vetoed, aborted, and partially rolled back
// modifications adjust it exactly); the distribution summaries are
// monotone approximations refreshed only by inserts and updates, which is
// the usual statistics trade-off — deletes never shrink them, so they can
// only over-estimate spread, never invent selectivity.
package stats

import (
	"math"
	"sort"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "stats"

const (
	// sampleSize bounds the per-column reservoir sample.
	sampleSize = 256
	// histBuckets is the number of equi-depth histogram buckets derived
	// from the sample at snapshot time.
	histBuckets = 16
	// hllBits selects 2^hllBits HyperLogLog registers per column.
	hllBits      = 6
	hllRegisters = 1 << hllBits
)

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[*table, *Instance]{
		ID:   core.AttStats,
		Name: Name,
		Parse: func(*core.Env, *core.RelDesc, core.AttrList) (attutil.IndexDef, error) {
			return attutil.IndexDef{Name: "stats"}, nil
		},
		// One statistics instance per relation: its log records name no
		// instance.
		Single: true,
		Decode: func(*core.Env, *core.RelDesc, attutil.IndexDef) (*table, error) {
			return &table{cols: make(map[int]*colStat), rng: rngSeed}, nil
		},
		Open: func(defs *attutil.Defs[*table]) *Instance { return &Instance{defs} },
		BuildRow: func(s *Instance, tx *txn.Txn, _ *attutil.Def[*table], key types.Key, rec types.Record) error {
			return s.OnInsert(tx, key, rec)
		},
	}))
}

// colStat accumulates one column's distribution summary.
type colStat struct {
	min, max types.Value
	nulls    int64
	seen     int64 // non-null values observed
	sample   []types.Value
	hll      [hllRegisters]uint8
}

// table is the statistics instance's state, guarded by the def list's
// latch.
type table struct {
	count int64
	cols  map[int]*colStat
	rng   uint64 // deterministic splitmix64 state for reservoir sampling
}

// Instance maintains statistics for one relation.
type Instance struct {
	*attutil.Defs[*table]
}

// current returns the relation's statistics, nil once they are dropped.
func (s *Instance) current() *table {
	if defs := s.All(); len(defs) > 0 {
		return defs[0].X
	}
	return nil
}

// rngSeed is a fixed odd seed so statistics are reproducible run to run.
const rngSeed = 0x9e3779b97f4a7c15

// nextRand advances the deterministic PRNG (splitmix64). Called under the latch.
func (s *table) nextRand() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashValue hashes a value's order-preserving encoding (FNV-1a finished
// with a splitmix64 mix for bit diffusion) for the distinct sketch.
func hashValue(v types.Value) uint64 {
	var buf [16]byte
	enc := v.AppendOrderedEncode(buf[:0])
	h := uint64(14695981039346656037)
	for _, b := range enc {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// ColumnSnapshot is one column's statistics view handed to the planner.
type ColumnSnapshot struct {
	Min, Max types.Value
	Distinct float64
	NullFrac float64
	// Hist holds ascending equi-depth bucket bounds (len B+1); each
	// adjacent pair brackets ~1/B of the sampled rows.
	Hist []types.Value
}

// Snapshot is the statistics view handed to the planner. Mins/Maxs are
// retained alongside Cols for existing consumers.
type Snapshot struct {
	Count int64
	Mins  map[int]types.Value
	Maxs  map[int]types.Value
	Cols  map[int]ColumnSnapshot
}

// Snapshot returns the current statistics.
func (s *Instance) Snapshot() Snapshot {
	out := Snapshot{
		Mins: make(map[int]types.Value),
		Maxs: make(map[int]types.Value),
		Cols: make(map[int]ColumnSnapshot),
	}
	t := s.current()
	if t == nil {
		return out
	}
	s.Mu.Lock()
	defer s.Mu.Unlock()
	out.Count = t.count
	for i, c := range t.cols {
		cs := ColumnSnapshot{Min: c.min, Max: c.max, Distinct: c.estimateDistinct(), Hist: c.histBounds()}
		if total := c.seen + c.nulls; total > 0 {
			cs.NullFrac = float64(c.nulls) / float64(total)
		}
		out.Cols[i] = cs
		if c.seen > 0 {
			out.Mins[i] = c.min
			out.Maxs[i] = c.max
		}
	}
	return out
}

// TableStats implements core.TableStatsProvider for the planner.
func (s *Instance) TableStats() core.TableStats {
	snap := s.Snapshot()
	out := core.TableStats{Rows: snap.Count, Cols: make(map[int]core.ColumnStats, len(snap.Cols))}
	for i, c := range snap.Cols {
		out.Cols[i] = core.ColumnStats{
			Distinct: c.Distinct,
			Min:      c.Min,
			Max:      c.Max,
			Hist:     c.Hist,
			NullFrac: c.NullFrac,
		}
	}
	return out
}

// estimateDistinct evaluates the HyperLogLog sketch. Called under mu.
func (c *colStat) estimateDistinct() float64 {
	if c.seen == 0 {
		return 0
	}
	sum := 0.0
	zeros := 0
	for _, r := range c.hll {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	const m = float64(hllRegisters)
	e := 0.709 * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting.
		e = m * math.Log(m/float64(zeros))
	}
	if e < 1 {
		e = 1
	}
	if e > float64(c.seen) {
		e = float64(c.seen)
	}
	return e
}

// histBounds derives equi-depth bucket bounds from the sorted reservoir
// sample: B+1 ascending values bracketing ~equal sample counts. Called
// under mu.
func (c *colStat) histBounds() []types.Value {
	n := len(c.sample)
	if n < 2 {
		return nil
	}
	sorted := make([]types.Value, n)
	copy(sorted, c.sample)
	sort.Slice(sorted, func(i, j int) bool { return types.Compare(sorted[i], sorted[j]) < 0 })
	b := histBuckets
	if n < 2*b {
		b = n / 2
	}
	bounds := make([]types.Value, 0, b+1)
	for i := 0; i <= b; i++ {
		idx := i * (n - 1) / b
		bounds = append(bounds, sorted[idx])
	}
	return bounds
}

// observe folds one record into the summaries. Called under the latch.
func (s *table) observe(rec types.Record) {
	for i, v := range rec {
		c := s.cols[i]
		if c == nil {
			c = &colStat{}
			s.cols[i] = c
		}
		if v.IsNull() {
			c.nulls++
			continue
		}
		if c.seen == 0 || types.Compare(v, c.min) < 0 {
			c.min = v
		}
		if c.seen == 0 || types.Compare(v, c.max) > 0 {
			c.max = v
		}
		c.seen++
		// Distinct sketch: bucket by the top register bits, rank by the
		// leading-zero run of the rest.
		h := hashValue(v)
		reg := h >> (64 - hllBits)
		rank := uint8(1)
		for mask := uint64(1) << (63 - hllBits); mask != 0 && h&mask == 0; mask >>= 1 {
			rank++
		}
		if rank > c.hll[reg] {
			c.hll[reg] = rank
		}
		// Reservoir sample (Vitter's algorithm R).
		if len(c.sample) < sampleSize {
			c.sample = append(c.sample, v)
		} else if j := s.nextRand() % uint64(c.seen); j < sampleSize {
			c.sample[j] = v
		}
	}
}

// change logs and applies a count delta and folds rec, when there is one,
// into the summaries.
func (s *Instance) change(tx *txn.Txn, delta int64, rec types.Record) error {
	t := s.current()
	if t == nil {
		return nil
	}
	if delta != 0 {
		op := core.ModInsert
		if delta < 0 {
			op = core.ModDelete
		}
		if err := s.Log(tx, core.EntryPayload{Op: op}); err != nil {
			return err
		}
	}
	s.Mu.Lock()
	defer s.Mu.Unlock()
	t.count += delta
	if rec != nil {
		t.observe(rec)
	}
	return nil
}

// OnInsert implements core.AttachmentInstance.
func (s *Instance) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	return s.change(tx, 1, rec)
}

// OnUpdate implements core.AttachmentInstance.
func (s *Instance) OnUpdate(tx *txn.Txn, oldKey, newKey types.Key, oldRec, newRec types.Record) error {
	return s.change(tx, 0, newRec)
}

// OnDelete implements core.AttachmentInstance.
func (s *Instance) OnDelete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	return s.change(tx, -1, nil)
}

// ApplyLogged implements core.AttachmentInstance.
func (s *Instance) ApplyLogged(payload []byte, undo bool) error {
	p, err := core.DecodeEntry(payload)
	if err != nil {
		return err
	}
	delta := int64(1)
	if p.Op == core.ModDelete {
		delta = -1
	}
	if undo {
		delta = -delta
	}
	if t := s.current(); t != nil {
		s.Mu.Lock()
		t.count += delta
		s.Mu.Unlock()
	}
	return nil
}

var (
	_ core.AttachmentInstance = (*Instance)(nil)
	_ core.TableStatsProvider = (*Instance)(nil)
)
