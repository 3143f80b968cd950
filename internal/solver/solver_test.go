package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// laplacian3D builds the standard 7-point Laplacian on an nx×ny×nz grid —
// a well-conditioned SPD test matrix with FEM-like structure.
func laplacian3D(nx, ny, nz int) *sparse.CSR {
	n := nx * ny * nz
	idx := func(i, j, k int) int { return i + nx*(j+ny*k) }
	tr := sparse.NewTriplet(n, n, 7*n)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				r := idx(i, j, k)
				tr.Add(r, r, 6)
				for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
					ii, jj, kk := i+d[0], j+d[1], k+d[2]
					if ii < 0 || ii >= nx || jj < 0 || jj >= ny || kk < 0 || kk >= nz {
						continue
					}
					tr.Add(r, idx(ii, jj, kk), -1)
				}
			}
		}
	}
	return tr.ToCSR()
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func residual(a *sparse.CSR, x, b []float64) float64 {
	ax := make([]float64, len(b))
	a.MulVec(ax, x)
	var num, den float64
	for i := range b {
		d := b[i] - ax[i]
		num += d * d
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

func TestRCMReducesBandwidth(t *testing.T) {
	// A random permutation of a structured matrix should be recompressed by
	// RCM to something near the natural bandwidth.
	a := laplacian3D(8, 8, 4)
	rng := rand.New(rand.NewSource(1))
	n := a.NRows
	shuffle := make([]int32, n)
	for i := range shuffle {
		shuffle[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { shuffle[i], shuffle[j] = shuffle[j], shuffle[i] })
	scrambled := a.ToCSC().Permute(shuffle).ToCSR()
	bwBefore := Bandwidth(scrambled)

	perm := RCM(scrambled)
	reordered := scrambled.ToCSC().Permute(perm).ToCSR()
	bwAfter := Bandwidth(reordered)
	if bwAfter >= bwBefore {
		t.Errorf("RCM did not reduce bandwidth: %d -> %d", bwBefore, bwAfter)
	}
	if bwAfter > 3*8*8 {
		t.Errorf("RCM bandwidth %d unexpectedly large", bwAfter)
	}
}

func TestRCMIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := laplacian3D(2+r.Intn(5), 2+r.Intn(5), 1+r.Intn(4))
		perm := RCM(a)
		seen := make([]bool, len(perm))
		for _, p := range perm {
			if p < 0 || int(p) >= len(perm) || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCholeskySolvesLaplacian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{3, 3, 3}, {6, 5, 4}, {10, 10, 3}} {
		a := laplacian3D(dims[0], dims[1], dims[2])
		chol, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		want := randVec(rng, a.NRows)
		b := make([]float64, a.NRows)
		a.MulVec(b, want)
		got := chol.Solve(b)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("dims %v: mismatch at %d: %g vs %g", dims, i, got[i], want[i])
			}
		}
	}
}

func TestCholeskyMultipleRHSConcurrent(t *testing.T) {
	a := laplacian3D(6, 6, 6)
	chol, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const nrhs = 16
	wants := make([][]float64, nrhs)
	bs := make([][]float64, nrhs)
	for i := range wants {
		wants[i] = randVec(rng, a.NRows)
		bs[i] = make([]float64, a.NRows)
		a.MulVec(bs[i], wants[i])
	}
	done := make(chan error, nrhs)
	for i := 0; i < nrhs; i++ {
		go func(i int) {
			got := chol.Solve(bs[i])
			for j := range got {
				if math.Abs(got[j]-wants[i][j]) > 1e-8*(1+math.Abs(wants[i][j])) {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < nrhs; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("solution mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestCholeskyRejectsIndefinite(t *testing.T) {
	tr := sparse.NewTriplet(2, 2, 2)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, -2)
	if _, err := NewCholesky(tr.ToCSR()); err == nil {
		t.Error("expected error for indefinite matrix")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	tr := sparse.NewTriplet(2, 3, 1)
	tr.Add(0, 0, 1)
	if _, err := NewCholesky(tr.ToCSR()); err == nil {
		t.Error("expected error for non-square matrix")
	}
}

func TestCholeskyRandomSPD(t *testing.T) {
	// Property: random diagonally dominant symmetric matrices factor and
	// solve correctly.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		tr := sparse.NewTriplet(n, n, 5*n)
		diag := make([]float64, n)
		for e := 0; e < 2*n; e++ {
			i, j := r.Intn(n), r.Intn(n)
			if i == j {
				continue
			}
			v := r.NormFloat64()
			tr.Add(i, j, v)
			tr.Add(j, i, v)
			diag[i] += math.Abs(v)
			diag[j] += math.Abs(v)
		}
		for i := 0; i < n; i++ {
			tr.Add(i, i, diag[i]+1)
		}
		a := tr.ToCSR()
		chol, err := NewCholesky(a)
		if err != nil {
			return false
		}
		want := randVec(r, n)
		b := make([]float64, n)
		a.MulVec(b, want)
		got := chol.Solve(b)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCGConverges(t *testing.T) {
	a := laplacian3D(8, 8, 8)
	rng := rand.New(rand.NewSource(4))
	b := randVec(rng, a.NRows)
	x, stats, err := PCG(a, b, nil, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Error("CG did not report convergence")
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Errorf("CG residual %g", r)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := laplacian3D(3, 3, 3)
	x, stats, err := PCG(a, make([]float64, a.NRows), nil, Options{})
	if err != nil || !stats.Converged {
		t.Fatalf("zero rhs: %v %v", stats, err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("nonzero solution for zero rhs")
		}
	}
}

func TestCGRejectsIndefinite(t *testing.T) {
	tr := sparse.NewTriplet(2, 2, 2)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, -1)
	if _, _, err := PCG(tr.ToCSR(), []float64{0, 1}, nil, Options{}); err == nil {
		t.Error("expected CG breakdown on indefinite matrix")
	}
}

func TestGMRESConverges(t *testing.T) {
	a := laplacian3D(8, 8, 8)
	rng := rand.New(rand.NewSource(5))
	b := randVec(rng, a.NRows)
	x, stats, err := GMRES(a, b, nil, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Error("GMRES did not report convergence")
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Errorf("GMRES residual %g", r)
	}
}

func TestGMRESNonsymmetric(t *testing.T) {
	// GMRES must handle a nonsymmetric (lifted) system; build one by
	// overwriting a Laplacian row with an identity row.
	a := laplacian3D(5, 5, 5).Clone()
	for p := a.RowPtr[0]; p < a.RowPtr[1]; p++ {
		if a.ColIdx[p] == 0 {
			a.Vals[p] = 1
		} else {
			a.Vals[p] = 0
		}
	}
	rng := rand.New(rand.NewSource(6))
	b := randVec(rng, a.NRows)
	x, _, err := GMRES(a, b, nil, Options{Tol: 1e-9, Restart: 40})
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-8 {
		t.Errorf("GMRES residual %g", r)
	}
}

func TestGMRESRestartSmall(t *testing.T) {
	a := laplacian3D(6, 6, 4)
	rng := rand.New(rand.NewSource(7))
	b := randVec(rng, a.NRows)
	x, _, err := GMRES(a, b, nil, Options{Tol: 1e-8, Restart: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-7 {
		t.Errorf("restarted GMRES residual %g", r)
	}
}

func TestGMRESWithInitialGuess(t *testing.T) {
	a := laplacian3D(5, 5, 5)
	rng := rand.New(rand.NewSource(8))
	want := randVec(rng, a.NRows)
	b := make([]float64, a.NRows)
	a.MulVec(b, want)
	// Start from the exact solution: should converge immediately.
	_, stats, err := GMRES(a, b, want, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 0 {
		t.Errorf("expected 0 iterations from exact guess, got %d", stats.Iterations)
	}
}

func TestCGAndGMRESAgree(t *testing.T) {
	a := laplacian3D(6, 6, 6)
	rng := rand.New(rand.NewSource(9))
	b := randVec(rng, a.NRows)
	xc, _, err := PCG(a, b, nil, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	xg, _, err := GMRES(a, b, nil, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xc {
		if math.Abs(xc[i]-xg[i]) > 1e-7*(1+math.Abs(xc[i])) {
			t.Fatalf("CG/GMRES disagree at %d: %g vs %g", i, xc[i], xg[i])
		}
	}
}

func TestSolversMatchCholesky(t *testing.T) {
	a := laplacian3D(5, 4, 3)
	rng := rand.New(rand.NewSource(10))
	b := randVec(rng, a.NRows)
	chol, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	direct := chol.Solve(b)
	iter, _, err := PCG(a, b, nil, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if math.Abs(direct[i]-iter[i]) > 1e-8*(1+math.Abs(direct[i])) {
			t.Fatalf("direct/iterative disagree at %d", i)
		}
	}
}
