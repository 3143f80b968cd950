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
					v := b.Vals[9*int(q)+i*BlockSize+j]
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
	if f := b.Fill(); f <= 0 || f > 3.0/9.0+1e-15 {
		t.Errorf("partial-tile fill = %g, want in (0, 1/3]", f)
	}
}

func TestBCSRFillAndMemory(t *testing.T) {
	dense := blockDiagCSR(40)
	b, err := NewBCSR(dense)
	if err != nil {
		t.Fatal(err)
	}
	if f := b.Fill(); f != 1 {
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
			solve    func(dst, b []float64)
			ptr, idx []int32
			vals     []float64
		}{
			"L":  {bt.SolveLower, bt.BRowPtr, bt.BColIdx, bt.Vals},
			"Lᵀ": {bt.SolveUpper, bt.BUpPtr, bt.BUpIdx, bt.UpVals},
		} {
			y := make([]float64, n)
			tri.solve(y, b)
			back := &BCSR{NRows: n, NCols: n, BRowPtr: tri.ptr, BColIdx: tri.idx, Vals: tri.vals}
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
		if bt.Single() {
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
		if !bt.Single() {
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

// TestBlockScheduleWeighsTiles pins the unitWork=9 calibration: a block
// diagonal with 500 tiles carries 4500 scalar-entry units of work per level
// and must pre-split for parallel sweeps, while a schedule of 1500 rows of
// one entry each (1500 units) stays serial. Without the scale the blocked
// schedule would count 500 raw pointer units and collapse too.
func TestBlockScheduleWeighsTiles(t *testing.T) {
	bt := blockCase{diagCSC(1500)}.tri(t, false)
	rowPtr := make([]int32, 1501)
	for i := range rowPtr {
		rowPtr[i] = int32(i)
	}
	if newLevelSchedule(make([]int32, 1500), rowPtr, 1).parallel {
		t.Error("scalar diagonal-1500 schedule claims to be parallelizable")
	}
	if !bt.Fwd.parallel || !bt.Bwd.parallel {
		t.Error("blocked diagonal-1500 schedule is not parallelizable; tile work not scaled by 9")
	}
	if bt.Fwd.NumLevels() != 1 || bt.Bwd.NumLevels() != 1 {
		t.Errorf("blocked diagonal: %d/%d levels, want 1/1", bt.Fwd.NumLevels(), bt.Bwd.NumLevels())
	}
}

// TestBlockLowerTriMemoryHalvedBySingle: the float32 factor stores the same
// tiles in half the value bytes; index and schedule overhead is unchanged.
func TestBlockLowerTriMemoryHalvedBySingle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	c := blockCase{randLowerCSC(rng, 900, 8)}
	double, single := c.tri(t, false), c.tri(t, true)
	saved := double.MemoryBytes() - single.MemoryBytes()
	want := 4 * int64(len(double.Vals)+len(double.UpVals))
	if saved != want {
		t.Errorf("single precision saves %d bytes, want %d (half the value arrays)", saved, want)
	}
	if single.MemoryBytes() >= double.MemoryBytes() {
		t.Errorf("single (%d bytes) not smaller than double (%d bytes)", single.MemoryBytes(), double.MemoryBytes())
	}
}
