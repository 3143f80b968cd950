package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// blockCSR builds a random n×n CSR with n divisible by BlockSize, via the
// same triplet path assembly uses.
func blockCSR(n, nnzPerRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	t := NewTriplet(n, n, n*nnzPerRow)
	for r := 0; r < n; r++ {
		t.Add(r, r, float64(nnzPerRow)+1) // keep every row non-empty
		for k := 0; k < nnzPerRow-1; k++ {
			t.Add(r, rng.Intn(n), rng.NormFloat64())
		}
	}
	return t.ToCSR()
}

// partialBlockCSR stresses zero-fill: one scalar entry per row, scattered so
// most 3×3 tiles hold a single value and eight explicit zeros.
func partialBlockCSR(n int) *CSR {
	t := NewTriplet(n, n, n)
	for r := 0; r < n; r++ {
		t.Add(r, (r*7+3)%n, float64(r%5)+1)
	}
	return t.ToCSR()
}

// blockDiagCSR builds a block-diagonal matrix of dense 3×3 tiles — exactly
// one, fully dense, tile per block row.
func blockDiagCSR(nb int) *CSR {
	t := NewTriplet(nb*BlockSize, nb*BlockSize, nb*BlockSize*BlockSize)
	for b := 0; b < nb; b++ {
		for i := 0; i < BlockSize; i++ {
			for j := 0; j < BlockSize; j++ {
				v := float64(i*BlockSize+j) + 1
				if i == j {
					v += 10
				}
				t.Add(b*BlockSize+i, b*BlockSize+j, v)
			}
		}
	}
	return t.ToCSR()
}

func infNorm(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func TestNewBCSRRejectsBadDims(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {6, 4}, {4, 6}, {1, 1}} {
		tr := NewTriplet(dims[0], dims[1], 1)
		tr.Add(0, 0, 1)
		if _, err := NewBCSR(tr.ToCSR()); err == nil {
			t.Errorf("%dx%d accepted, want divisibility error", dims[0], dims[1])
		}
	}
}

// TestBCSRMatchesScalarMulVec is the tolerance-equivalence contract of the
// blocked matvec: tiles accumulate three products at a time, so the result
// is not bitwise equal to scalar CSR, but must agree to rounding noise on
// every shape — random fill, partial tiles, single-tile rows.
func TestBCSRMatchesScalarMulVec(t *testing.T) {
	cases := map[string]*CSR{
		"random-999":       blockCSR(999, 9, 11),
		"random-dense-300": blockCSR(300, 40, 12),
		"partial-tiles":    partialBlockCSR(600),
		"single-tile-rows": blockDiagCSR(150),
		"one-block":        blockDiagCSR(1),
	}
	rng := rand.New(rand.NewSource(21))
	for name, m := range cases {
		b, err := NewBCSR(m)
		if err != nil {
			t.Fatalf("%s: NewBCSR: %v", name, err)
		}
		if b.ScalarNNZ != int(m.RowPtr[m.NRows]) {
			t.Errorf("%s: ScalarNNZ = %d, want %d", name, b.ScalarNNZ, m.RowPtr[m.NRows])
		}
		x := make([]float64, m.NCols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, m.NRows)
		m.MulVec(want, x)
		got := make([]float64, m.NRows)
		b.MulVec(got, x)
		tol := 1e-10 * (1 + infNorm(want))
		for i := range want {
			if d := got[i] - want[i]; d > tol || d < -tol {
				t.Fatalf("%s: dst[%d] = %g, want %g (|Δ| > %g)", name, i, got[i], want[i], tol)
			}
		}
	}
}

// TestBCSRZeroFill pins the tile padding semantics: entries absent from the
// scalar matrix must be explicit zeros in their tile, so padded positions
// contribute exactly nothing (not stale garbage) to the matvec.
func TestBCSRZeroFill(t *testing.T) {
	m := partialBlockCSR(60)
	b, err := NewBCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[[2]int32]bool, b.ScalarNNZ)
	for r := int32(0); r < int32(m.NRows); r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			present[[2]int32{r, m.ColIdx[p]}] = true
		}
	}
	nonzero := 0
	for br := 0; br < b.NBRows(); br++ {
		for q := b.BRowPtr[br]; q < b.BRowPtr[br+1]; q++ {
			bc := b.BColIdx[q]
			for i := 0; i < BlockSize; i++ {
				for j := 0; j < BlockSize; j++ {
					v := b.Tile(int(q))[i*BlockSize+j]
					r, c := int32(br*BlockSize+i), bc*int32(BlockSize)+int32(j)
					if v != 0 {
						nonzero++
						if !present[[2]int32{r, c}] {
							t.Fatalf("tile (%d,%d) has value %g at (%d,%d), absent from scalar matrix", br, bc, v, r, c)
						}
					} else if present[[2]int32{r, c}] && v == 0 {
						// A stored zero is fine; just keep counting.
						nonzero++
					}
				}
			}
		}
	}
	if nonzero != b.ScalarNNZ {
		t.Errorf("tiles hold %d stored scalar entries, want %d", nonzero, b.ScalarNNZ)
	}
	if f := fill(b); f <= 0 || f > 3.0/9.0+1e-15 {
		t.Errorf("partial-tile fill = %g, want in (0, 1/3]", f)
	}
}

func TestBCSRFillAndMemory(t *testing.T) {
	dense := blockDiagCSR(40)
	b, err := NewBCSR(dense)
	if err != nil {
		t.Fatal(err)
	}
	if f := fill(b); f != 1 {
		t.Errorf("dense-tile fill = %g, want 1", f)
	}
	if b.NNZBlocks() != 40 {
		t.Errorf("NNZBlocks = %d, want 40", b.NNZBlocks())
	}
	if b.MemoryBytes() <= 0 {
		t.Errorf("MemoryBytes = %d, want > 0", b.MemoryBytes())
	}
}

// drop321 removes DoFs the way a 3-2-1 rigid-body constraint does — all of
// node a, two components of node b, one of node c — so the dimension stays
// a multiple of BlockSize but every tile past node a straddles two nodes.
func drop321(m *CSR, a, b, c int) *CSR {
	keep := make([]int32, m.NRows)
	for _, d := range []int{3 * a, 3*a + 1, 3*a + 2, 3*b + 1, 3*b + 2, 3*c + 2} {
		keep[d] = -1
	}
	var n int32
	for i := range keep {
		if keep[i] == 0 {
			keep[i] = n
			n++
		}
	}
	return m.Extract(keep, keep, int(n), int(n))
}

func sameCSR(t *testing.T, name string, got, want *CSR) {
	t.Helper()
	if got.NRows != want.NRows || got.NCols != want.NCols {
		t.Fatalf("%s: %d×%d, want %d×%d", name, got.NRows, got.NCols, want.NRows, want.NCols)
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	if got.NNZ() != want.NNZ() {
		t.Fatalf("%s: nnz %d, want %d", name, got.NNZ(), want.NNZ())
	}
	for p := range want.ColIdx {
		if got.ColIdx[p] != want.ColIdx[p] || math.Float64bits(got.Vals[p]) != math.Float64bits(want.Vals[p]) {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", name, p, got.ColIdx[p], got.Vals[p], want.ColIdx[p], want.Vals[p])
		}
	}
}

// TestBCSRToCSRRoundTrip: expanding the tiles reproduces the source CSR
// bitwise — pattern and values — on node-blocked, misaligned (3-2-1) and
// random patterns, none of which store exact zeros.
func TestBCSRToCSRRoundTrip(t *testing.T) {
	blocked := nodeBlockCSR(10, 6)
	cases := map[string]*CSR{
		"node-blocked":  blocked,
		"misaligned":    drop321(blocked, 20, 27, 33),
		"random-999":    blockCSR(999, 9, 11),
		"partial-tiles": partialBlockCSR(600),
		"one-block":     blockDiagCSR(1),
	}
	for name, m := range cases {
		if m.NRows%BlockSize != 0 {
			t.Fatalf("%s: fixture dimension %d does not tile", name, m.NRows)
		}
		b, err := NewBCSR(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameCSR(t, name, b.ToCSR(), m)
	}
}

// TestBCSRToCSRDropsStoredZeros: a zero the source CSR stores (here an
// assembly cancellation) is indistinguishable from tile padding, so the
// expansion drops it — and nothing else.
func TestBCSRToCSRDropsStoredZeros(t *testing.T) {
	tr := NewTriplet(6, 6, 12)
	for i := 0; i < 6; i++ {
		tr.Add(i, i, float64(i+2))
	}
	tr.Add(0, 4, 1.5)
	tr.Add(4, 0, 1.5)
	tr.Add(1, 5, 2) // cancels to a stored zero
	tr.Add(1, 5, -2)
	m := tr.ToCSR()
	if m.NNZ() != 9 {
		t.Fatalf("fixture stores %d entries, want 9 (one of them zero)", m.NNZ())
	}
	want := NewTriplet(6, 6, 8)
	for i := 0; i < 6; i++ {
		want.Add(i, i, float64(i+2))
	}
	want.Add(0, 4, 1.5)
	want.Add(4, 0, 1.5)
	b, err := NewBCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "stored-zero", b.ToCSR(), want.ToCSR())
}

// TestBCSRDiagTile: DiagTile aliases the stored diagonal tile of a block
// row and reports nil for a block row without one.
func TestBCSRDiagTile(t *testing.T) {
	tr := NewTriplet(6, 6, 4)
	tr.Add(0, 0, 1)
	tr.Add(2, 1, 7)
	tr.Add(3, 0, 5) // block row 1 stores only an off-diagonal tile
	b, err := NewBCSR(tr.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	d := b.DiagTile(0)
	if len(d) != 9 || d[0] != 1 || d[7] != 7 {
		t.Fatalf("DiagTile(0) = %v, want [1 0 0 0 0 0 0 7 0]", d)
	}
	if d := b.DiagTile(1); d != nil {
		t.Fatalf("DiagTile(1) = %v, want nil", d)
	}
}

// TestNewBCSRKeysTilesByBits: NewBCSR's dictionary tells tiles apart by
// their raw bits, so tiles that differ only in the sign of a zero or in a
// NaN payload keep their own entries and read back bitwise as given, while
// bitwise-equal tiles share one.
func TestNewBCSRKeysTilesByBits(t *testing.T) {
	corner := []float64{
		math.Copysign(0, -1), // −0
		0,                    // +0, as the zero fill
		math.Float64frombits(0x7ff8000000000001),
		math.Float64frombits(0x7ff8000000000002),
		0,
	}
	n := 3 * len(corner)
	m := &CSR{NRows: n, NCols: n, RowPtr: make([]int32, n+1)}
	for i, v := range corner {
		if i != 1 {
			m.ColIdx, m.Vals = append(m.ColIdx, int32(3*i)), append(m.Vals, v)
		}
		m.RowPtr[3*i+1] = int32(len(m.Vals))
		m.ColIdx, m.Vals = append(m.ColIdx, int32(3*i+2)), append(m.Vals, 1) // off the tile's diagonal: never Sym
		m.RowPtr[3*i+2], m.RowPtr[3*i+3] = int32(len(m.Vals)), int32(len(m.Vals))
	}
	b, err := NewBCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sym || b.NNZBlocks() != len(corner) || b.Entries() != 4 {
		t.Fatalf("Sym %v, %d tiles, %d entries; want unsymmetric, 5 and 4", b.Sym, b.NNZBlocks(), b.Entries())
	}
	if b.ValIdx[4] != b.ValIdx[1] {
		t.Errorf("equal tiles 1 and 4 hold entries %d and %d, want one", b.ValIdx[1], b.ValIdx[4])
	}
	for p, v := range corner {
		want := [9]float64{v, 0, 0, 0, 0, 1, 0, 0, 0}
		for i, got := range b.Tile(p) {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("tile %d scalar %d reads %x, want %x", p, i, math.Float64bits(got), math.Float64bits(want[i]))
			}
		}
	}
}

// TestBCSRMulVecParBitwiseMatchesSerial: partitioning never splits a block
// row, so every worker count — through MulVecPar's transient pool and through
// explicit bounds on a resident pool — must reproduce the serial
// blocked matvec bit for bit. The matrix clears MinParRows so the parallel
// path actually engages.
func TestBCSRMulVecParBitwiseMatchesSerial(t *testing.T) {
	m := blockCSR(3*((MinParRows+3000)/3), 9, 31)
	b, err := NewBCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, m.NRows)
	b.MulVec(want, x)
	check := func(mode string, workers int, got []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s workers=%d: dst[%d] = %x, want %x (not bitwise equal)", mode, workers, i, got[i], want[i])
			}
		}
	}
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), 8} {
		got := make([]float64, m.NRows)
		b.MulVecPar(got, x, w)
		check("transient", w, got)

		// The pooled path the solver Workspace drives: explicit chunk
		// bounds through a resident pool.
		pool := NewPool(w)
		for _, parts := range []int{1, 3, 16} {
			for i := range got {
				got[i] = -1
			}
			op := &BlockMatVec{M: b, Dst: got, X: x}
			pool.Run(PartitionByWork(b.BRowPtr, 0, b.NBRows(), parts), op)
			check("pool", w, got)
		}
		pool.Close()
	}
}

// TestBCSRPartitionWeighsBlockRows: PartitionByWork over BRowPtr balances by
// tiles per block row, so a single dense block row among light rows must be
// isolated in its own chunk — the blocked analogue of the scalar heavy-row
// regression, covering the degenerate single-tile-row shape around it.
func TestBCSRPartitionWeighsBlockRows(t *testing.T) {
	const nb = 100
	n := nb * BlockSize
	tr := NewTriplet(n, n, n+3*n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 2) // light: one diagonal tile per block row
	}
	for i := n - BlockSize; i < n; i++ { // heavy: last block row dense
		for j := 0; j < n; j++ {
			tr.Add(i, j, 0.25)
		}
	}
	m := tr.ToCSR()
	b, err := NewBCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(b.BRowPtr[nb] - b.BRowPtr[nb-1]); got != nb {
		t.Fatalf("heavy block row holds %d tiles, want %d", got, nb)
	}
	bounds := PartitionByWork(b.BRowPtr, 0, b.NBRows(), 4)
	if int(bounds[len(bounds)-2]) != nb-1 {
		t.Fatalf("heavy block row not isolated: bounds %v", bounds)
	}
	// And the partitioned matvec still matches the serial one bitwise.
	rng := rand.New(rand.NewSource(33))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	b.MulVec(want, x)
	got := make([]float64, n)
	pool := NewPool(4)
	defer pool.Close()
	pool.Run(bounds, &BlockMatVec{M: b, Dst: got, X: x})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dst[%d] = %x, want %x (not bitwise equal)", i, got[i], want[i])
		}
	}
}

// blockCase is one blocked-factor test shape: a scalar lower-triangular
// factor in CSC (diagonal first in each column), the reference the tiled
// solves are checked against.
type blockCase struct{ l *CSC }

// blockCols groups a scalar lower-triangular CSC into the block-column form
// NewBlockLowerTri takes. Read as rows, the CSC arrays are Lᵀ, so tiling
// them gives the tiles of Lᵀ by block row — L's block columns — and
// transposing each tile gives L_IJ.
func blockCols(l *CSC) (colPtr, rowIdx []int32, vals []float64) {
	nb := l.NCols / BlockSize
	colPtr, rowIdx, vals = tileRows(nb, nb, l.ColPtr, l.RowIdx, l.Vals)
	for p := range rowIdx {
		v := vals[9*p : 9*p+9]
		v[1], v[3] = v[3], v[1]
		v[2], v[6] = v[6], v[2]
		v[5], v[7] = v[7], v[5]
	}
	return colPtr, rowIdx, vals
}

// tri builds the tiled factor of the case.
func (c blockCase) tri(t *testing.T, single bool) *BlockLowerTri {
	t.Helper()
	colPtr, rowIdx, vals := blockCols(c.l)
	bt, err := NewBlockLowerTri(colPtr, rowIdx, vals, single)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// solveLower solves L·dst = b with the scalar columns of the case.
func (c blockCase) solveLower(dst, b []float64) {
	l := c.l
	copy(dst, b)
	for j := 0; j < l.NCols; j++ {
		dst[j] /= l.Vals[l.ColPtr[j]]
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			dst[l.RowIdx[p]] -= l.Vals[p] * dst[j]
		}
	}
}

// solveUpper solves Lᵀ·dst = b with the scalar columns of the case.
func (c blockCase) solveUpper(dst, b []float64) {
	l := c.l
	copy(dst, b)
	for j := l.NCols - 1; j >= 0; j-- {
		v := dst[j]
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			v -= l.Vals[p] * dst[l.RowIdx[p]]
		}
		dst[j] = v / l.Vals[l.ColPtr[j]]
	}
}

// blockTris builds the blocked-factor test set: random, diagonal, arrow and
// chain factors at dimensions divisible by BlockSize.
func blockTris(t *testing.T) map[string]blockCase {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	return map[string]blockCase{
		"random-300":    {randLowerCSC(rng, 300, 6)},
		"random-3000":   {randLowerCSC(rng, 3000, 12)},
		"diagonal":      {diagCSC(501)},
		"dense-row":     {denseLastRowCSC(402)},
		"serial-chain":  {chainCSC(300)},
		"single-block":  {diagCSC(3)},
		"random-sparse": {randLowerCSC(rng, 801, 2)},
	}
}

// TestNewBlockLowerTriRejectsBadDims: a column form whose pointers, tiles
// and values disagree in length, or whose block rows leave the matrix, is
// rejected instead of indexing out of range.
func TestNewBlockLowerTriRejectsBadDims(t *testing.T) {
	colPtr, rowIdx, vals := blockCols(chainCSC(6))
	bad := map[string]func() ([]int32, []int32, []float64){
		"no pointers":      func() ([]int32, []int32, []float64) { return nil, nil, nil },
		"short values":     func() ([]int32, []int32, []float64) { return colPtr, rowIdx, vals[:len(vals)-1] },
		"pointer overrun":  func() ([]int32, []int32, []float64) { return []int32{0, 1, 4}, rowIdx, vals },
		"row out of range": func() ([]int32, []int32, []float64) { return colPtr, []int32{0, 2, 1}, vals },
	}
	for name, in := range bad {
		for _, single := range []bool{false, true} {
			c, r, v := in()
			if _, err := NewBlockLowerTri(c, r, v, single); err == nil {
				t.Errorf("%s (single=%v) accepted", name, single)
			}
		}
	}
}

// TestNewBlockLowerTriRejectsMissingDiagonal: every block column must open
// with its diagonal tile and list its block rows strictly ascending.
func TestNewBlockLowerTriRejectsMissingDiagonal(t *testing.T) {
	tile := make([]float64, 9)
	for name, in := range map[string][2][]int32{
		"missing diagonal": {{0, 1, 2}, {1, 1}},
		"rows descending":  {{0, 3, 4}, {0, 2, 1, 1}},
		"repeated row":     {{0, 3, 4}, {0, 1, 1, 1}},
	} {
		colPtr, rowIdx := in[0], in[1]
		if _, err := NewBlockLowerTri(colPtr, rowIdx, slices.Repeat(tile, len(rowIdx)), false); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestBlockLowerTriSolvesInverse checks the serial solves against the
// definition: L·(SolveLower(b)) must reproduce b, and likewise for Lᵀ,
// with the products taken over the stored tiles.
func TestBlockLowerTriSolvesInverse(t *testing.T) {
	for name, c := range blockTris(t) {
		// A fresh per-case rng: map iteration order is random, so drawing b
		// from one shared stream would make each case's data — and its
		// rounding — depend on the order.
		rng := rand.New(rand.NewSource(5))
		bt := c.tri(t, false)
		n := bt.N
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for dir, tri := range map[string]struct {
			solve func(dst, b []float64)
			upper bool
			vals  []float64
		}{
			"L":  {bt.SolveLower, false, bt.Lower.Vals},
			"Lᵀ": {bt.SolveUpper, true, bt.Upper.Vals},
		} {
			y := make([]float64, n)
			tri.solve(y, b)
			// Gather the triangle's rows in ascending order for the product.
			back := &BCSR{NRows: n, NCols: n, BRowPtr: []int32{0}}
			for br := 0; br < bt.NBRows(); br++ {
				cols, first := bt.Row(br, tri.upper)
				for k := range cols {
					back.ValIdx = append(back.ValIdx, int32(first+k))
				}
				back.BColIdx = append(back.BColIdx, cols...)
				back.Vals = tri.vals
				back.BRowPtr = append(back.BRowPtr, int32(len(back.BColIdx)))
			}
			got := make([]float64, n)
			back.MulVec(got, y)
			for r := range got {
				if d := got[r] - b[r]; d > 1e-9 || d < -1e-9 {
					t.Errorf("%s: (%s·y)[%d] = %g, want %g", name, dir, r, got[r], b[r])
					break
				}
			}
		}
	}
}

// TestBlockLowerTriMatchesScalar: the float64 blocked solves regroup the
// same products as the scalar column sweeps (three columns per tile instead
// of one), so they agree to rounding noise on every factor shape.
func TestBlockLowerTriMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for name, c := range blockTris(t) {
		bt := c.tri(t, false)
		if bt.Lower.Vals32 != nil {
			t.Fatalf("%s: double-precision factor reports Single()", name)
		}
		n := bt.N
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for dir, solves := range map[string][2]func([]float64, []float64){
			"lower": {c.solveLower, bt.SolveLower},
			"upper": {c.solveUpper, bt.SolveUpper},
		} {
			want := make([]float64, n)
			solves[0](want, b)
			got := make([]float64, n)
			solves[1](got, b)
			tol := 1e-9 * (1 + infNorm(want))
			for i := range want {
				if d := got[i] - want[i]; d > tol || d < -tol {
					t.Fatalf("%s %s: dst[%d] = %g, want %g (|Δ| > %g)", name, dir, i, got[i], want[i], tol)
				}
			}
		}
	}
}

// TestBlockLowerTriSingleMatchesRoundedScalar: the float32 factor stores
// tile values rounded to single precision but accumulates in float64, so it
// must track a scalar float64 solve of the *rounded* factor to grouping
// noise — this isolates the storage rounding from the kernel itself, and
// holds even on ill-conditioned factors where comparing against the
// unrounded solve would need a condition-number-sized tolerance.
func TestBlockLowerTriSingleMatchesRoundedScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cases := map[string]*CSC{
		"random-300":   randLowerCSC(rng, 300, 6),
		"diagonal":     diagCSC(501),
		"dense-row":    denseLastRowCSC(402),
		"serial-chain": chainCSC(300),
	}
	for name, csc := range cases {
		bt := blockCase{csc}.tri(t, true)
		if bt.Lower.Vals32 == nil {
			t.Fatalf("%s: single-precision factor does not report Single()", name)
		}
		// Scalar reference over the same rounded values.
		rounded := blockCase{&CSC{NRows: csc.NRows, NCols: csc.NCols, ColPtr: csc.ColPtr,
			RowIdx: csc.RowIdx, Vals: make([]float64, len(csc.Vals))}}
		for i, v := range csc.Vals {
			rounded.l.Vals[i] = float64(float32(v))
		}
		n := bt.N
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for dir, solves := range map[string][2]func([]float64, []float64){
			"lower": {rounded.solveLower, bt.SolveLower},
			"upper": {rounded.solveUpper, bt.SolveUpper},
		} {
			want := make([]float64, n)
			solves[0](want, b)
			got := make([]float64, n)
			solves[1](got, b)
			tol := 1e-9 * (1 + infNorm(want))
			for i := range want {
				if d := got[i] - want[i]; d > tol || d < -tol {
					t.Fatalf("%s %s: dst[%d] = %g, want %g (|Δ| > %g)", name, dir, i, got[i], want[i], tol)
				}
			}
		}
	}
}

// TestBlockLowerTriParBitwiseMatchesSerial is the level-scheduling
// correctness contract: the parallel sweeps share the serial block-row
// kernels, so every pool size and precision must be bitwise identical to
// the serial blocked solve.
func TestBlockLowerTriParBitwiseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0), 8}
	for name, c := range blockTris(t) {
		for _, single := range []bool{false, true} {
			bt := c.tri(t, single)
			prec := "f64"
			if single {
				prec = "f32"
			}
			n := bt.N
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			wantL := make([]float64, n)
			bt.SolveLower(wantL, b)
			wantU := make([]float64, n)
			bt.SolveUpper(wantU, b)
			check := func(mode string, workers int, got, want []float64) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s %s workers=%d: dst[%d] = %x, want %x (not bitwise equal)",
							name, prec, mode, workers, i, got[i], want[i])
					}
				}
			}
			for _, w := range workerCounts {
				got := make([]float64, n)
				pool := NewPool(w)
				var sc BlockTriScratch
				bt.SolveLowerPar(got, b, pool, &sc)
				check("lower", w, got, wantL)
				bt.SolveUpperPar(got, b, pool, &sc)
				check("upper", w, got, wantU)
				pool.Close()
			}
			inPlace := make([]float64, n)
			copy(inPlace, b)
			pool := NewPool(4)
			var sc BlockTriScratch
			bt.SolveLowerPar(inPlace, inPlace, pool, &sc)
			pool.Close()
			check("lower/in-place", 4, inPlace, wantL)
		}
	}
}

// TestBlockLowerTriSweepOrder pins the layout: L's position k holds block
// row k, whose diagonal tile comes last, and Lᵀ's position k holds block
// row nb−1−k, whose diagonal tile comes first. The solves must be bitwise
// equal to a plain ascending (descending) sweep that reads each row through
// Row and runs the same kernel arithmetic.
func TestBlockLowerTriSweepOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for name, c := range blockTris(t) {
		for _, single := range []bool{false, true} {
			bt := c.tri(t, single)
			nb := bt.NBRows()
			for k := 0; k < nb; k++ {
				lo := bt.Lower.Idx[bt.Lower.Ptr[k]:bt.Lower.Ptr[k+1]]
				up := bt.Upper.Idx[bt.Upper.Ptr[k]:bt.Upper.Ptr[k+1]]
				if lo[len(lo)-1] != int32(k) || up[0] != int32(nb-1-k) {
					t.Fatalf("%s single=%v: position %d holds L row %d and Lᵀ row %d, want %d and %d",
						name, single, k, lo[len(lo)-1], up[0], k, nb-1-k)
				}
			}
			b := make([]float64, bt.N)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			got, want := make([]float64, bt.N), make([]float64, bt.N)
			bt.SolveLower(got, b)
			rowSweep(bt, want, b, false)
			if !slices.Equal(got, want) {
				t.Fatalf("%s single=%v: forward sweep differs from the row-by-row reference", name, single)
			}
			bt.SolveUpper(got, b)
			rowSweep(bt, want, b, true)
			if !slices.Equal(got, want) {
				t.Fatalf("%s single=%v: backward sweep differs from the row-by-row reference", name, single)
			}
		}
	}
}

// identity returns 0, 1, …, n−1.
func identity(n int) []int32 {
	s := make([]int32, n)
	for k := range s {
		s[k] = int32(k)
	}
	return s
}

// rowSweep is the reference sweep of TestBlockLowerTriSweepOrder: rows in
// natural order (descending for Lᵀ), read through Row, with the kernels'
// arithmetic spelled out.
func rowSweep(bt *BlockLowerTri, dst, b []float64, upper bool) {
	tile := func(p int) [9]float64 {
		var t [9]float64
		for k := range t {
			if bt.Lower.Vals32 != nil {
				v := bt.Lower.Vals32
				if upper {
					v = bt.Upper.Vals32
				}
				t[k] = float64(v[9*p+k])
			} else {
				v := bt.Lower.Vals
				if upper {
					v = bt.Upper.Vals
				}
				t[k] = v[9*p+k]
			}
		}
		return t
	}
	nb := bt.NBRows()
	for k := 0; k < nb; k++ {
		br := k
		if upper {
			br = nb - 1 - k
		}
		cols, first := bt.Row(br, upper)
		diag, off := first+len(cols)-1, cols[:len(cols)-1]
		if upper {
			diag, off = first, cols[1:]
		}
		s0, s1, s2 := b[3*br], b[3*br+1], b[3*br+2]
		for q, c := range off {
			p := first + q
			if upper {
				p++
			}
			t := tile(p)
			x0, x1, x2 := dst[3*c], dst[3*c+1], dst[3*c+2]
			s0 -= t[0]*x0 + t[1]*x1 + t[2]*x2
			s1 -= t[3]*x0 + t[4]*x1 + t[5]*x2
			s2 -= t[6]*x0 + t[7]*x1 + t[8]*x2
		}
		d := tile(diag)
		if upper {
			z2 := s2 / d[8]
			z1 := (s1 - d[5]*z2) / d[4]
			dst[3*br], dst[3*br+1], dst[3*br+2] = (s0-d[1]*z1-d[2]*z2)/d[0], z1, z2
			continue
		}
		y0 := s0 / d[0]
		y1 := (s1 - d[3]*y0) / d[4]
		dst[3*br], dst[3*br+1], dst[3*br+2] = y0, y1, (s2-d[6]*y0-d[7]*y1)/d[8]
	}
}

// TestBlockScheduleWeighsTiles pins the split's size rule: a block row
// weighs as its BlockSize scalar rows against MinParRows. A blocked
// diagonal of 1 500 block rows (4 500 scalar rows) splits into two equal
// chunks and sweeps them on a gang; one of 1 200 (3 600 scalar rows) has
// the same split but stays serial.
func TestBlockScheduleWeighsTiles(t *testing.T) {
	for _, c := range []struct {
		nb       int
		parallel bool
	}{{1500, true}, {1200, false}} {
		bt := blockCase{diagCSC(BlockSize * c.nb)}.tri(t, false)
		if bt.Fwd.parallel != c.parallel || bt.Bwd.parallel != c.parallel {
			t.Errorf("diagonal-%d: parallel %v/%v, want %v", c.nb, bt.Fwd.parallel, bt.Bwd.parallel, c.parallel)
		}
		if a, b := halves(bt.Fwd); a != c.nb/2 || b != c.nb/2 || bt.Fwd.Tail() != 0 {
			t.Errorf("diagonal-%d: halves %d/%d, tail %d; want %d/%d, 0", c.nb, a, b, bt.Fwd.Tail(), c.nb/2, c.nb/2)
		}
	}
}

// TestBlockLowerTriMemoryHalvedBySingle: the float32 factor stores the same
// tiles in half the value bytes; index and schedule overhead is unchanged.
func TestBlockLowerTriMemoryHalvedBySingle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	c := blockCase{randLowerCSC(rng, 900, 8)}
	double, single := c.tri(t, false), c.tri(t, true)
	saved := double.MemoryBytes() - single.MemoryBytes()
	want := 4 * int64(len(double.Lower.Vals)+len(double.Upper.Vals))
	if saved != want {
		t.Errorf("single precision saves %d bytes, want %d (half the value arrays)", saved, want)
	}
	if single.MemoryBytes() >= double.MemoryBytes() {
		t.Errorf("single (%d bytes) not smaller than double (%d bytes)", single.MemoryBytes(), double.MemoryBytes())
	}
}

// fill returns the fraction of m's logical tile entries that came from the
// scalar pattern (1.0 = every tile fully dense, 1/9 = one scalar per
// tile), counting a Sym matrix's mirrored off-diagonal tiles twice.
func fill(m *BCSR) float64 {
	tiles := len(m.BColIdx)
	if m.Sym {
		diag := 0
		for br := range m.NBRows() {
			if p := m.BRowPtr[br]; p < m.BRowPtr[br+1] && int(m.BColIdx[p]) == br {
				diag++
			}
		}
		tiles = 2*tiles - diag
	}
	if tiles == 0 {
		return 1
	}
	return float64(m.ScalarNNZ) / float64(9*tiles)
}

// halves returns the row counts of a sweep's two chunks.
func halves(s *LevelSchedule) (int, int) {
	return int(s.Par[1] - s.Par[0]), int(s.Par[2] - s.Par[1])
}
