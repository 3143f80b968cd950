package solver

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// elasticity3 builds a 3-DoF-per-node SPD test matrix: the 7-point Laplacian
// pattern expanded to 3×3 node blocks with intra-node coupling — a stand-in
// for an elasticity stiffness matrix.
func elasticity3(nx, ny, nz int) *sparse.CSR {
	lap := laplacian3D(nx, ny, nz)
	n := lap.NRows
	tr := sparse.NewTriplet(3*n, 3*n, lap.NNZ()*9)
	for r := 0; r < n; r++ {
		for p := lap.RowPtr[r]; p < lap.RowPtr[r+1]; p++ {
			c := int(lap.ColIdx[p])
			v := lap.Vals[p]
			for i := 0; i < 3; i++ {
				tr.Add(3*r+i, 3*c+i, v*2)
				if r == c {
					// Intra-node coupling (symmetric, diagonally dominated).
					tr.Add(3*r+i, 3*c+(i+1)%3, 0.4)
					tr.Add(3*r+(i+1)%3, 3*c+i, 0.4)
				}
			}
		}
	}
	return tr.ToCSR()
}

func TestInvert3(t *testing.T) {
	m := []float64{4, 1, 0, 1, 5, 2, 0, 2, 6}
	inv := make([]float64, 9)
	if err := invert3(m, inv); err != nil {
		t.Fatal(err)
	}
	// m · inv = I.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += m[3*i+k] * inv[3*k+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-12 {
				t.Fatalf("(m·inv)[%d][%d] = %g", i, j, s)
			}
		}
	}
	if err := invert3(make([]float64, 9), inv); err == nil {
		t.Error("expected error for singular block")
	}
}

func TestPreconditionersSolveSameSystem(t *testing.T) {
	a := elasticity3(6, 5, 4)
	rng := rand.New(rand.NewSource(11))
	want := randVec(rng, a.NRows)
	b := make([]float64, a.NRows)
	a.MulVec(b, want)

	for _, kind := range []PrecondKind{PrecondAuto, PrecondNone, PrecondBlockJacobi3, PrecondIC0} {
		x, stats, err := PCG(tiled(a), b, nil, Options{Tol: 1e-10, Precond: kind})
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		if !stats.Converged {
			t.Fatalf("kind %v did not converge", kind)
		}
		if stats.Precond != kind.Resolve(a.NRows) {
			t.Fatalf("kind %v: stats report %v, want %v", kind, stats.Precond, kind.Resolve(a.NRows))
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				t.Fatalf("kind %d: mismatch at %d", kind, i)
			}
		}
	}
}

func TestIC0ReducesIterations(t *testing.T) {
	a := elasticity3(8, 8, 6)
	rng := rand.New(rand.NewSource(12))
	b := randVec(rng, a.NRows)
	_, sBlk, err := PCG(tiled(a), b, nil, Options{Tol: 1e-9, Precond: PrecondBlockJacobi3})
	if err != nil {
		t.Fatal(err)
	}
	_, sIC, err := PCG(tiled(a), b, nil, Options{Tol: 1e-9, Precond: PrecondIC0})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("block-Jacobi %d iterations, IC0 %d iterations", sBlk.Iterations, sIC.Iterations)
	if sIC.Iterations >= sBlk.Iterations {
		t.Errorf("IC0 (%d) should beat block-Jacobi (%d)", sIC.Iterations, sBlk.Iterations)
	}
}

// diagPrecond is scalar Jacobi, dst = r / diag(A): the reference the
// block-Jacobi-3 preconditioner replaced.
type diagPrecond []float64

func newDiagPrecond(a *sparse.CSR) diagPrecond {
	d := make(diagPrecond, a.NRows)
	for i := range d {
		d[i] = a.At(i, i)
	}
	return d
}

func (d diagPrecond) Apply(dst, r []float64) {
	for i, v := range r {
		dst[i] = v / d[i]
	}
}

// TestBlockJacobiBeatsJacobiOnCoupledSystem: coupling each node's x/y/z
// components is why block-Jacobi-3 is the package's only Jacobi-type
// preconditioner; it must never take more iterations than scalar Jacobi.
func TestBlockJacobiBeatsJacobiOnCoupledSystem(t *testing.T) {
	a := elasticity3(8, 8, 4)
	rng := rand.New(rand.NewSource(13))
	b := randVec(rng, a.NRows)
	_, sJac, err := PCG(tiled(a), b, nil, Options{Tol: 1e-9, Precond: PrecondNone, M: newDiagPrecond(a)})
	if err != nil {
		t.Fatal(err)
	}
	_, sBlk, err := PCG(tiled(a), b, nil, Options{Tol: 1e-9, Precond: PrecondBlockJacobi3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Jacobi %d, block-Jacobi %d iterations", sJac.Iterations, sBlk.Iterations)
	if sBlk.Iterations > sJac.Iterations {
		t.Errorf("block-Jacobi (%d) should not lose to Jacobi (%d) with intra-node coupling",
			sBlk.Iterations, sJac.Iterations)
	}
}

func TestBlockJacobiHandlesIdentityRows(t *testing.T) {
	// Identity rows (inactive nodes) make a singular off-diagonal pattern;
	// the fallback must still produce a usable preconditioner.
	tr := sparse.NewTriplet(6, 6, 12)
	for i := 0; i < 3; i++ {
		tr.Add(i, i, 1) // identity block
	}
	tr.Add(3, 3, 4)
	tr.Add(4, 4, 5)
	tr.Add(5, 5, 6)
	tr.Add(3, 4, 1)
	tr.Add(4, 3, 1)
	a := tr.ToCSR()
	b := []float64{1, 2, 3, 4, 5, 6}
	x, stats, err := PCG(tiled(a), b, nil, Options{Tol: 1e-12, Precond: PrecondBlockJacobi3})
	if err != nil || !stats.Converged {
		t.Fatalf("solve failed: %v %v", stats, err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Error("identity block solved wrong")
	}
}

func TestIC0ExactOnDiagonal(t *testing.T) {
	// On a diagonal matrix a float64 IC0 factor is exact: one iteration to
	// converge. (The float32 default rounds the factor, so PCG needs a
	// second iteration to reach 1e-12.)
	tr := sparse.NewTriplet(6, 6, 6)
	for i := 0; i < 6; i++ {
		tr.Add(i, i, float64(i+1))
	}
	b := []float64{1, 1, 1, 1, 1, 1}
	_, stats, err := PCG(tiled(tr.ToCSR()), b, nil, Options{Tol: 1e-12, Precond: PrecondIC0, Precision: PrecisionFloat64})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations > 1 {
		t.Errorf("IC0 on diagonal matrix took %d iterations", stats.Iterations)
	}
}

func TestIC0MatchesFullCholeskyOnTridiagonal(t *testing.T) {
	// A tridiagonal SPD matrix has no fill, so IC0 equals the exact
	// factorization and PCG converges in one iteration.
	n := 39
	tr := sparse.NewTriplet(n, n, 3*n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 2.5)
		if i > 0 {
			tr.Add(i, i-1, -1)
			tr.Add(i-1, i, -1)
		}
	}
	rng := rand.New(rand.NewSource(14))
	b := randVec(rng, n)
	_, stats, err := PCG(tiled(tr.ToCSR()), b, nil, Options{Tol: 1e-10, Precond: PrecondIC0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations > 2 {
		t.Errorf("IC0 on tridiagonal took %d iterations, want <= 2", stats.Iterations)
	}
}

func TestPrecondAutoResolution(t *testing.T) {
	// One rule for every entry point: the size alone decides, whether the
	// preconditioner is built for one solve or cached across many.
	cases := []struct {
		kind PrecondKind
		n    int
		want PrecondKind
	}{
		{PrecondAuto, 300, PrecondBlockJacobi3},
		{PrecondAuto, AutoIC0Threshold - 1, PrecondBlockJacobi3},
		{PrecondAuto, AutoIC0Threshold, PrecondIC0},
		{PrecondAuto, 2709, PrecondIC0},  // served 6×6: block-Jacobi-3 under the deleted one-shot rule
		{PrecondAuto, 20000, PrecondIC0}, // the deleted one-shot crossover is no boundary
		{PrecondBlockJacobi3, 1 << 20, PrecondBlockJacobi3},
		{PrecondIC0, 3, PrecondIC0},
		{PrecondNone, 3, PrecondNone},
	}
	for _, c := range cases {
		if got := c.kind.Resolve(c.n); got != c.want {
			t.Errorf("Resolve(%v, n=%d) = %v, want %v", c.kind, c.n, got, c.want)
		}
	}
}

func TestParsePrecondRoundTrip(t *testing.T) {
	for _, kind := range []PrecondKind{PrecondAuto, PrecondBlockJacobi3, PrecondIC0, PrecondNone} {
		got, err := ParsePrecond(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParsePrecond(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if k, err := ParsePrecond(""); err != nil || k != PrecondAuto {
		t.Errorf("empty spelling should parse as auto, got %v, %v", k, err)
	}
	if k, err := ParsePrecond("bj3"); err != nil || k != PrecondBlockJacobi3 {
		t.Errorf("bj3 shorthand: got %v, %v", k, err)
	}
	if _, err := ParsePrecond("cholesky"); err == nil {
		t.Error("expected error for unknown preconditioner name")
	}
	// The deleted scalar Jacobi is an unknown spelling whose error names
	// the kinds that remain.
	_, err := ParsePrecond("jacobi")
	if err == nil {
		t.Fatal("the retired \"jacobi\" spelling still parses")
	}
	for _, k := range []PrecondKind{PrecondAuto, PrecondBlockJacobi3, PrecondIC0, PrecondNone} {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("error %q does not list %q", err, k)
		}
	}
}

// TestWarmStartStatsAndIterations checks the warm-start contract of the
// iterative solvers: seeding with the exact solution converges without
// iterating, the Stats record Warm, and a nearby seed (the previous point of
// a ΔT-style sweep) takes no more iterations than a cold start.
func TestWarmStartStatsAndIterations(t *testing.T) {
	a := elasticity3(6, 6, 4)
	rng := rand.New(rand.NewSource(21))
	want := randVec(rng, a.NRows)
	b := make([]float64, a.NRows)
	a.MulVec(b, want)
	at := tiled(a)

	for _, solve := range []struct {
		name string
		fn   func(x0 []float64) ([]float64, Stats, error)
	}{
		{"PCG", func(x0 []float64) ([]float64, Stats, error) { return PCG(at, b, x0, Options{Tol: 1e-10}) }},
		{"GMRES", func(x0 []float64) ([]float64, Stats, error) { return GMRES(at, b, x0, Options{Tol: 1e-10}) }},
	} {
		t.Run(solve.name, func(t *testing.T) {
			_, cold, err := solve.fn(nil)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Warm {
				t.Error("cold solve reported Warm")
			}
			_, exact, err := solve.fn(want)
			if err != nil {
				t.Fatal(err)
			}
			if !exact.Warm || exact.Iterations != 0 {
				t.Errorf("exact seed: warm=%v iterations=%d, want warm in 0 iterations", exact.Warm, exact.Iterations)
			}
			// A scaled solution — what a ΔT sweep's previous point looks
			// like — must not be slower than a zero start.
			near := make([]float64, len(want))
			for i := range near {
				near[i] = 0.9 * want[i]
			}
			_, warm, err := solve.fn(near)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Iterations > cold.Iterations {
				t.Errorf("near seed took %d iterations vs %d cold", warm.Iterations, cold.Iterations)
			}
		})
	}
}
