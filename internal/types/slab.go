package types

// RunLen is the read path's run: the entries one tree descent copies
// (smutil.TreeScan), the keys one snapshot index read fetches per
// storage-method call (core.AccessFetch), and the most rows one Slab
// backing array holds.
const RunLen = 64

// Slab hands out the rows (records, keys) a read returns from shared
// backing arrays. Each row is a cap-limited slice of the current array,
// so appending to it reallocates it instead of overwriting its
// neighbour, and an array is never reused, so a row stays valid for as
// long as its holder keeps it, the read finished or not. Arrays hold one
// row, then twice as many each time, up to RunLen, unless Size names the
// next one's row count: a point read allocates no more than a row of its
// own would.
type Slab[T any] struct {
	free []T // the current array's unused tail
	rows int // rows the next array holds; 0 means 1
}

// Size makes the next backing array hold rows rows.
func (s *Slab[T]) Size(rows int) { s.rows = rows }

// Take returns a zeroed row of n elements. An empty row
// is non-nil, as a fresh empty record is.
func (s *Slab[T]) Take(n int) []T {
	if n == 0 {
		return []T{}
	}
	if len(s.free) < n {
		rows := max(s.rows, 1)
		s.free = make([]T, rows*n)
		s.rows = max(min(2*rows, RunLen), rows)
	}
	row := s.free[:n:n]
	s.free = s.free[n:]
	return row
}

// Copy returns a copy of b taken from the slab.
func (s *Slab[T]) Copy(b []T) []T {
	row := s.Take(len(b))
	copy(row, b)
	return row
}
