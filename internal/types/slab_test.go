package types

import "testing"

// TestSlab: rows are cap-limited and disjoint; arrays hold 1, 2, 4, ...
// RunLen rows, or the count Size names; an empty row is non-nil, as a
// fresh empty record is.
func TestSlab(t *testing.T) {
	var s Slab[Value]
	if row := s.Take(0); row == nil || len(row) != 0 {
		t.Fatalf("Take(0) = %#v, want an empty non-nil row", row)
	}
	rows := make([][]Value, 200)
	for i := range rows {
		rows[i] = s.Take(3)
		if len(rows[i]) != 3 || cap(rows[i]) != 3 {
			t.Fatalf("row %d: len %d cap %d, want 3 and 3", i, len(rows[i]), cap(rows[i]))
		}
		rows[i][0], rows[i][2] = Int(int64(i)), Int(int64(-i))
	}
	for i, row := range rows {
		if row[0].I != int64(i) || row[2].I != int64(-i) {
			t.Fatalf("row %d was overwritten: %v", i, row)
		}
	}
	// 1+2+4+8+16+32+64 rows, then 64, then the 9 left in a ninth array.
	if n := testing.AllocsPerRun(10, func() {
		var s Slab[Value]
		for range 200 {
			s.Take(3)
		}
	}); n != 9 {
		t.Fatalf("200 rows took %v arrays, want 9", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		var s Slab[byte]
		s.Size(5)
		for range 6 {
			s.Take(8)
		}
	}); n != 2 {
		t.Fatalf("6 rows after Size(5) took %v arrays, want 2", n)
	}
}
