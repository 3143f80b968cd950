package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// symmetrize returns (m + mᵀ)/2: every entry is one two-term sum, which
// commutes exactly, so the result is bitwise symmetric.
func symmetrize(m *CSR) *CSR {
	t := m.Transpose()
	tr := NewTriplet(m.NRows, m.NCols, 2*m.NNZ())
	for _, a := range []*CSR{m, t} {
		for r := 0; r < a.NRows; r++ {
			for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
				tr.Add(r, int(a.ColIdx[p]), 0.5*a.Vals[p])
			}
		}
	}
	return tr.ToCSR()
}

// symProduct runs b's product on a resident pool of the given size (0 =
// the serial MulVec).
func symProduct(b *BCSR, x []float64, workers int) []float64 {
	dst := make([]float64, b.NRows)
	for i := range dst {
		dst[i] = math.NaN() // every entry must be written
	}
	if workers == 0 {
		b.MulVec(dst, x)
		return dst
	}
	pool := NewPool(workers)
	defer pool.Close()
	op := &BlockMatVec{M: b, Dst: dst, X: x, Spill: make([]float64, b.SpillLen())}
	pool.Run(b.Stripes(), op)
	op.Fold()
	return dst
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSymBCSRStoresUpperTriangle: a bitwise symmetric CSR tiles into its
// upper block triangle, diagonal tile first, and everything that reads the
// logical matrix — ToCSR, Full, ScalarNNZ, Fill — sees both triangles; a
// matrix one bit off symmetric keeps both triangles.
func TestSymBCSRStoresUpperTriangle(t *testing.T) {
	m := symmetrize(nodeBlockCSR(12, 9))
	b, err := NewBCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Sym {
		t.Fatal("bitwise symmetric matrix not stored Sym")
	}
	full := b.Full()
	if full.Sym || full.NNZBlocks() != 2*b.NNZBlocks()-b.NBRows() {
		t.Fatalf("Full holds %d tiles, want %d", full.NNZBlocks(), 2*b.NNZBlocks()-b.NBRows())
	}
	for br := 0; br < b.NBRows(); br++ {
		if b.BColIdx[b.BRowPtr[br]] != int32(br) {
			t.Fatalf("block row %d does not start with its diagonal tile", br)
		}
	}
	if b.ScalarNNZ != m.NNZ() || fill(full) != fill(b) || fill(b) != 1 {
		t.Errorf("ScalarNNZ %d (want %d), Fill %g (full %g, want 1)", b.ScalarNNZ, m.NNZ(), fill(b), fill(full))
	}
	sameCSR(t, "sym", b.ToCSR(), m)
	sameCSR(t, "full", full.ToCSR(), m)
	// 5 of this stencil's 9 tiles per row are kept, plus a spill slot for
	// each that reaches past its stripe.
	if b.MemoryBytes() >= full.MemoryBytes()*6/10 {
		t.Errorf("Sym storage takes %d bytes, full %d: want under 60%%", b.MemoryBytes(), full.MemoryBytes())
	}

	off := m.Clone()
	off.Vals[1] = math.Nextafter(off.Vals[1], math.Inf(1))
	if b, _ := NewBCSR(off); b.Sym {
		t.Error("matrix one ulp off symmetric stored Sym")
	}
}

// TestSymBCSRProductDeterministic: the Sym product is bitwise identical on
// every pool size and through MulVec and MulVecPar, and agrees with the
// full-storage product to rounding, with the matrix cut into one stripe,
// a few, or many.
func TestSymBCSRProductDeterministic(t *testing.T) {
	m := symmetrize(nodeBlockCSR(40, 40)) // 4800 rows ≥ MinParRows
	b, err := NewBCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	full := b.Full()
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, m.NRows)
	full.MulVec(ref, x)
	scale := infNorm(ref)
	for _, budget := range []int{1 << 30, stripeTiles, 2000, 97} {
		b.stripe(budget)
		want := symProduct(b, x, 0)
		for _, w := range []int{1, 2, 4, 8} {
			if i := sameBits(symProduct(b, x, w), want); i >= 0 {
				t.Fatalf("budget %d, %d workers: dst[%d] differs from MulVec", budget, w, i)
			}
			got := make([]float64, m.NRows)
			b.MulVecPar(got, x, w)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("budget %d, MulVecPar(%d): dst[%d] differs from MulVec", budget, w, i)
			}
		}
		for i := range want {
			if d := math.Abs(want[i] - ref[i]); d > 1e-14*scale {
				t.Fatalf("budget %d (%d stripes): dst[%d] = %g, full product %g", budget, len(b.Stripes())-1, i, want[i], ref[i])
			}
		}
	}
}

// TestSymBCSRRangeOffStripePanics: a pooled Sym product must be cut on its
// stripe bounds; any other chunking would split a stripe's spill.
func TestSymBCSRRangeOffStripePanics(t *testing.T) {
	b, err := NewBCSR(symmetrize(nodeBlockCSR(10, 10)))
	if err != nil {
		t.Fatal(err)
	}
	b.stripe(50)
	defer func() {
		if recover() == nil {
			t.Error("off-stripe range did not panic")
		}
	}()
	dst, x := make([]float64, b.NRows), make([]float64, b.NCols)
	(&BlockMatVec{M: b, Dst: dst, X: x, Spill: make([]float64, b.SpillLen())}).RunRange(int(b.Stripes()[1])+1, b.NBRows())
}

// FuzzSymBCSR builds random symmetric tile patterns — empty block rows,
// diagonal-only matrices, stored zeros — and checks that the Sym layout
// round-trips through ToCSR and that its product, on one stripe or many,
// is bitwise the same on every pool size.
func FuzzSymBCSR(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{})
	f.Add(uint8(6), uint8(3), []byte{0, 0, 5, 1, 1, 7, 2, 5, 9, 5, 0, 3})
	f.Add(uint8(12), uint8(1), []byte{3, 3, 0, 0, 11, 4})
	f.Add(uint8(30), uint8(7), []byte{0, 29, 1, 28, 2, 27, 3, 26, 14, 15, 16, 17, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, nb, budget uint8, data []byte) {
		n := BlockSize * (int(nb)%40 + 1)
		tr := NewTriplet(n, n, len(data))
		nz := NewTriplet(n, n, len(data))
		seen := map[[2]int]bool{}
		for k := 0; k+2 < len(data); k += 3 {
			// A scalar pair (r, c), r ≤ c, and its mirror; duplicates are
			// skipped so every entry is a single value.
			r, c := int(data[k])%n, int(data[k+1])%n
			if r > c {
				r, c = c, r
			}
			if seen[[2]int{r, c}] {
				continue
			}
			seen[[2]int{r, c}] = true
			v := float64(int(data[k+2])%9 - 4) // zero sometimes: a stored zero
			for _, dst := range []*Triplet{tr, nz} {
				if dst == nz && v == 0 {
					continue
				}
				dst.Add(r, c, v)
				if r != c {
					dst.Add(c, r, v)
				}
			}
		}
		m := tr.ToCSR()
		b, err := NewBCSR(m)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Sym {
			t.Fatal("symmetric input not stored Sym")
		}
		sameCSR(t, "round trip", b.ToCSR(), nz.ToCSR())
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%5) - 1.5
		}
		want := make([]float64, n)
		m.MulVec(want, x)
		b.stripe(int(budget)%8 + 1)
		serial := symProduct(b, x, 0)
		for i := range want {
			if d := math.Abs(serial[i] - want[i]); d > 1e-12*(1+infNorm(want)) {
				t.Fatalf("dst[%d] = %g, scalar product %g", i, serial[i], want[i])
			}
		}
		for _, w := range []int{1, 2, 4} {
			if i := sameBits(symProduct(b, x, w), serial); i >= 0 {
				t.Fatalf("%d workers: dst[%d] differs from MulVec", w, i)
			}
		}
	})
}
