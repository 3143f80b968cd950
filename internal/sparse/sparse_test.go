package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// denseOf expands a CSR matrix to a dense row-major slice for comparison.
func denseOf(m *CSR) []float64 {
	d := make([]float64, m.NRows*m.NCols)
	for r := 0; r < m.NRows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			d[r*m.NCols+int(m.ColIdx[p])] += m.Vals[p]
		}
	}
	return d
}

func randTriplet(rng *rand.Rand, nr, nc, entries int) (*Triplet, []float64) {
	t := NewTriplet(nr, nc, entries)
	dense := make([]float64, nr*nc)
	for i := 0; i < entries; i++ {
		r, c := rng.Intn(nr), rng.Intn(nc)
		v := rng.NormFloat64()
		t.Add(r, c, v)
		dense[r*nc+c] += v
	}
	return t, dense
}

func TestTripletToCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, dense := randTriplet(rng, 7, 5, 60)
	m := tr.ToCSR()
	got := denseOf(m)
	for i := range dense {
		if math.Abs(got[i]-dense[i]) > 1e-12 {
			t.Fatalf("entry %d: %g vs %g", i, got[i], dense[i])
		}
	}
	// Columns sorted and unique within each row.
	for r := 0; r < m.NRows; r++ {
		for p := m.RowPtr[r] + 1; p < m.RowPtr[r+1]; p++ {
			if m.ColIdx[p] <= m.ColIdx[p-1] {
				t.Fatalf("row %d not sorted/unique", r)
			}
		}
	}
}

func TestTripletDuplicateSummation(t *testing.T) {
	tr := NewTriplet(2, 2, 4)
	tr.Add(0, 0, 1)
	tr.Add(0, 0, 2)
	tr.Add(1, 1, -1)
	tr.Add(0, 0, 0) // zero skipped
	m := tr.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", m.NNZ())
	}
	if m.At(0, 0) != 3 || m.At(1, 1) != -1 || m.At(0, 1) != 0 {
		t.Errorf("wrong values: %v", m.Vals)
	}
}

func TestTripletOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTriplet(2, 2, 1).Add(2, 0, 1)
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nr, nc := 1+r.Intn(20), 1+r.Intn(20)
		tr, dense := randTriplet(rng, nr, nc, r.Intn(3*nr*nc+1))
		m := tr.ToCSR()
		x := make([]float64, nc)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		got := make([]float64, nr)
		m.MulVec(got, x)
		for i := 0; i < nr; i++ {
			var want float64
			for j := 0; j < nc; j++ {
				want += dense[i*nc+j] * x[j]
			}
			if math.Abs(got[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr, dense := randTriplet(rng, 6, 9, 30)
	m := tr.ToCSR()
	mt := m.Transpose()
	if mt.NRows != 9 || mt.NCols != 6 {
		t.Fatalf("transpose dims %d×%d", mt.NRows, mt.NCols)
	}
	got := denseOf(mt)
	for r := 0; r < 6; r++ {
		for c := 0; c < 9; c++ {
			if math.Abs(got[c*6+r]-dense[r*9+c]) > 1e-12 {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, _ := randTriplet(r, 1+r.Intn(15), 1+r.Intn(15), r.Intn(80))
		m := tr.ToCSR()
		tt := m.Transpose().Transpose()
		if tt.NRows != m.NRows || tt.NCols != m.NCols || tt.NNZ() != m.NNZ() {
			return false
		}
		for i := range m.Vals {
			if m.Vals[i] != tt.Vals[i] || m.ColIdx[i] != tt.ColIdx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestExtract(t *testing.T) {
	tr := NewTriplet(3, 3, 9)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			tr.Add(r, c, float64(10*r+c))
		}
	}
	m := tr.ToCSR()
	// Keep rows {0,2} and cols {1,2}.
	rowMap := []int32{0, -1, 1}
	colMap := []int32{-1, 0, 1}
	s := m.Extract(rowMap, colMap, 2, 2)
	if s.At(0, 0) != 1 || s.At(0, 1) != 2 || s.At(1, 0) != 21 || s.At(1, 1) != 22 {
		t.Errorf("Extract wrong: %v", denseOf(s))
	}
}

func TestCSCRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, _ := randTriplet(r, 1+r.Intn(12), 1+r.Intn(12), r.Intn(60))
		m := tr.ToCSR()
		back := m.ToCSC().ToCSR()
		if back.NNZ() != m.NNZ() {
			return false
		}
		for i := range m.Vals {
			if m.Vals[i] != back.Vals[i] || m.ColIdx[i] != back.ColIdx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPermute(t *testing.T) {
	// A 3×3 symmetric matrix permuted by reversal must equal the manual
	// reindexing.
	tr := NewTriplet(3, 3, 9)
	vals := [3][3]float64{{4, 1, 0}, {1, 5, 2}, {0, 2, 6}}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if vals[r][c] != 0 {
				tr.Add(r, c, vals[r][c])
			}
		}
	}
	perm := []int32{2, 1, 0}
	pm := tr.ToCSR().ToCSC().Permute(perm).ToCSR()
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if pm.At(int(perm[r]), int(perm[c])) != vals[r][c] {
				t.Fatalf("permute mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestMemoryBytes(t *testing.T) {
	tr := NewTriplet(2, 2, 1)
	tr.Add(0, 0, 1)
	m := tr.ToCSR()
	if m.MemoryBytes() <= 0 {
		t.Error("non-positive memory estimate")
	}
}

func TestClone(t *testing.T) {
	tr := NewTriplet(2, 2, 2)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 2)
	m := tr.ToCSR()
	c := m.Clone()
	c.Vals[0] = 99
	if m.Vals[0] == 99 {
		t.Error("Clone is shallow")
	}
}

func TestCompactRows(t *testing.T) {
	// Raw matrix with unordered duplicated entries per row.
	raw := &CSR{
		NRows: 2, NCols: 3,
		RowPtr: []int32{0, 4, 6},
		ColIdx: []int32{2, 0, 2, 1, 1, 1},
		Vals:   []float64{5, 1, -2, 4, 7, 3},
	}
	c := raw.CompactRows(2)
	if c.NNZ() != 4 {
		t.Fatalf("nnz %d, want 4", c.NNZ())
	}
	if c.At(0, 0) != 1 || c.At(0, 1) != 4 || c.At(0, 2) != 3 || c.At(1, 1) != 10 {
		t.Errorf("compacted values wrong: %v %v", c.ColIdx, c.Vals)
	}
	for r := 0; r < c.NRows; r++ {
		for p := c.RowPtr[r] + 1; p < c.RowPtr[r+1]; p++ {
			if c.ColIdx[p] <= c.ColIdx[p-1] {
				t.Fatal("row not sorted after compaction")
			}
		}
	}
}

func TestCompactRowsMatchesTriplet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nr, nc := 1+r.Intn(10), 1+r.Intn(10)
		tr, dense := randTriplet(r, nr, nc, r.Intn(120))
		m := tr.ToCSR()
		// Build the same matrix as a raw duplicated CSR: one row segment per
		// row with the triplet entries in reverse order.
		_ = dense
		raw := &CSR{NRows: nr, NCols: nc, RowPtr: make([]int32, nr+1)}
		type ent struct {
			c int32
			v float64
		}
		rows := make([][]ent, nr)
		for i := 0; i < m.NRows; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				// Split each entry into two halves to force duplicates.
				rows[i] = append(rows[i], ent{m.ColIdx[p], m.Vals[p] / 2})
				rows[i] = append(rows[i], ent{m.ColIdx[p], m.Vals[p] / 2})
			}
		}
		for i := 0; i < nr; i++ {
			raw.RowPtr[i+1] = raw.RowPtr[i] + int32(len(rows[i]))
			for j := len(rows[i]) - 1; j >= 0; j-- {
				raw.ColIdx = append(raw.ColIdx, rows[i][j].c)
				raw.Vals = append(raw.Vals, rows[i][j].v)
			}
		}
		c := raw.CompactRows(3)
		if c.NNZ() != m.NNZ() {
			return false
		}
		for i := range m.Vals {
			if c.ColIdx[i] != m.ColIdx[i] || math.Abs(c.Vals[i]-m.Vals[i]) > 1e-12*(1+math.Abs(m.Vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// sortSliceCompact is the row compaction as it was written against the
// reflective sort.Slice: each row's entries sorted by column, duplicates
// summed in sorted order.
func sortSliceCompact(m *CSR) *CSR {
	out := &CSR{NRows: m.NRows, NCols: m.NCols, RowPtr: make([]int32, m.NRows+1)}
	type pair struct {
		c int32
		v float64
	}
	for r := 0; r < m.NRows; r++ {
		var buf []pair
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			buf = append(buf, pair{m.ColIdx[p], m.Vals[p]})
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i].c < buf[j].c })
		for i := 0; i < len(buf); {
			c, v := buf[i].c, buf[i].v
			for i++; i < len(buf) && buf[i].c == c; i++ {
				v += buf[i].v
			}
			out.ColIdx = append(out.ColIdx, c)
			out.Vals = append(out.Vals, v)
		}
		out.RowPtr[r+1] = int32(len(out.Vals))
	}
	return out
}

// TestRowSortKeepsSortSliceBits: CompactRows and Triplet.ToCSR sort each row
// with slices.SortFunc, which must permute duplicate columns exactly as
// sort.Slice did — on rows long enough to leave insertion sort and full of
// duplicates whose sum depends on the order, the compacted values are
// bitwise those of the sort.Slice compaction.
func TestRowSortKeepsSortSliceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nr, nc = 40, 12
	raw := &CSR{NRows: nr, NCols: nc, RowPtr: make([]int32, nr+1)}
	tr := NewTriplet(nr, nc, 0)
	for r := 0; r < nr; r++ {
		for range 1 + rng.Intn(400) {
			c := int32(rng.Intn(nc))
			v := rng.NormFloat64()
			raw.ColIdx = append(raw.ColIdx, c)
			raw.Vals = append(raw.Vals, v)
			tr.Add(r, int(c), v)
		}
		raw.RowPtr[r+1] = int32(len(raw.Vals))
	}
	want := sortSliceCompact(raw)
	same := func(m *CSR) bool {
		if !slices.Equal(m.RowPtr, want.RowPtr) || !slices.Equal(m.ColIdx, want.ColIdx) {
			return false
		}
		return slices.EqualFunc(m.Vals, want.Vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	if !same(tr.ToCSR()) {
		t.Error("Triplet.ToCSR differs from the sort.Slice compaction")
	}
	if !same(raw.Clone().CompactRows(3)) {
		t.Error("CompactRows differs from the sort.Slice compaction")
	}
}
