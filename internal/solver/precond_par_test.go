package solver

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// randSPDSparse builds a random sparse SPD matrix: symmetric off-diagonal
// pattern with a diagonal strong enough to dominate each row.
func randSPDSparse(rng *rand.Rand, n, extraPerRow int) *sparse.CSR {
	t := sparse.NewTriplet(n, n, n*(2*extraPerRow+1))
	rowSum := make([]float64, n)
	for r := 0; r < n; r++ {
		for k := 0; k < extraPerRow; k++ {
			c := rng.Intn(n)
			if c == r {
				continue
			}
			v := rng.NormFloat64()
			t.Add(r, c, v)
			t.Add(c, r, v)
			rowSum[r] += abs(v)
			rowSum[c] += abs(v)
		}
	}
	for r := 0; r < n; r++ {
		t.Add(r, r, rowSum[r]+1+rng.Float64())
	}
	return t.ToCSR()
}

// diagonalCSR builds a diagonal SPD matrix (degenerate one-level schedule).
func diagonalCSR(n int) *sparse.CSR {
	t := sparse.NewTriplet(n, n, n)
	for r := 0; r < n; r++ {
		t.Add(r, r, float64(r%5)+1)
	}
	return t.ToCSR()
}

// arrowCSR builds an SPD arrow matrix: diagonal plus one dense final
// row/column — the single-dense-row degenerate shape.
func arrowCSR(n int) *sparse.CSR {
	t := sparse.NewTriplet(n, n, 3*n)
	for r := 0; r < n-1; r++ {
		t.Add(r, r, 4)
		t.Add(r, n-1, 0.5)
		t.Add(n-1, r, 0.5)
	}
	t.Add(n-1, n-1, float64(n)) // dominate the dense row
	return t.ToCSR()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestIC0ParallelBitwiseMatchesSerial is the correctness contract for the
// level-scheduled preconditioner: across random SPD systems, pool sizes (1,
// 2, GOMAXPROCS, 8) and degenerate shapes (diagonal, single dense row), the
// pooled apply must be bitwise identical to the serial reference.
func TestIC0ParallelBitwiseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	systems := map[string]*sparse.CSR{
		"laplacian":  laplacian3D(9, 8, 7),
		"elasticity": elasticity3(7, 6, 5),
		"random-1":   randSPDSparse(rng, 700, 4),
		"random-2":   randSPDSparse(rng, 1500, 8),
		"diagonal":   diagonalCSR(600),
		"dense-row":  arrowCSR(500),
	}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0), 8}
	for name, a := range systems {
		p, err := newIC0(a, OrderingNatural, PrecisionAuto)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := a.NRows
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		p.Apply(want, r) // serial reference
		for _, w := range workerCounts {
			got := make([]float64, n)
			ws := NewWorkspace(w)
			p.applyPar(got, r, ws)
			ws.Close()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s pool workers=%d: dst[%d] = %x, want %x", name, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPCGWorkspaceMatchesPlain checks that the workspace/pool/prebuilt-M
// fast path computes exactly what the plain path computes: same iterations,
// bitwise-equal solution.
func TestPCGWorkspaceMatchesPlain(t *testing.T) {
	a := elasticity3(8, 7, 6)
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, kind := range []PrecondKind{PrecondJacobi, PrecondBlockJacobi3, PrecondIC0} {
		want, wantStats, err := PCG(a, b, nil, Options{Tol: 1e-9, Precond: kind, Workers: 1})
		if err != nil {
			t.Fatalf("%v plain: %v", kind, err)
		}
		m, err := NewPreconditioner(kind, OrderingAuto, PrecisionAuto, a)
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace(4)
		defer ws.Close()
		for trial := 0; trial < 3; trial++ { // repeat: workspace reuse must not leak state
			got, stats, err := PCG(a, b, nil, Options{Tol: 1e-9, Precond: kind, M: m, Work: ws, Workers: 4})
			if err != nil {
				t.Fatalf("%v workspace: %v", kind, err)
			}
			if stats.Iterations != wantStats.Iterations {
				t.Errorf("%v trial %d: %d iterations, plain took %d", kind, trial, stats.Iterations, wantStats.Iterations)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v trial %d: x[%d] = %x, plain %x (not bitwise equal)", kind, trial, i, got[i], want[i])
				}
			}
			if stats.PrecondBuild != 0 {
				t.Errorf("%v: PrecondBuild = %v with prebuilt M, want 0", kind, stats.PrecondBuild)
			}
			if stats.PrecondApply <= 0 {
				t.Errorf("%v: PrecondApply not recorded", kind)
			}
		}
	}
}

// TestPCGZeroAllocs is the allocation-free hot-loop contract: with a
// reusable Workspace (resident gang) and a prebuilt preconditioner, a
// steady-state PCG solve performs zero allocations. testing.AllocsPerRun
// measures process-wide mallocs, so the gang's work counts too.
func TestPCGZeroAllocs(t *testing.T) {
	a := elasticity3(10, 10, 8) // 2400 DoFs: serial mat-vec, pooled tri solves
	rng := rand.New(rand.NewSource(9))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, workers := range []int{1, 4} {
		m, err := NewPreconditioner(PrecondIC0, OrderingAuto, PrecisionAuto, a)
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace(workers)
		opt := Options{Tol: 1e-8, Precond: PrecondIC0, M: m, Work: ws, Workers: workers}
		// Warm up: first solve sizes the workspace buffers.
		if _, _, err := PCG(a, b, nil, opt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := PCG(a, b, nil, opt); err != nil {
				t.Fatal(err)
			}
		})
		ws.Close()
		if allocs != 0 {
			t.Errorf("workers=%d: %.1f allocs per steady-state PCG solve, want 0", workers, allocs)
		}
	}
}

// TestPCGZeroAllocsParallelMatVec covers the pooled mat-vec path too: a
// system past sparse.MinParRows so the matrix product fans out through the
// resident gang, still allocation-free.
func TestPCGZeroAllocsParallelMatVec(t *testing.T) {
	if testing.Short() {
		t.Skip("large no-alloc system is slow")
	}
	a := elasticity3(16, 16, 6) // 4608 DoFs ≥ MinParRows
	rng := rand.New(rand.NewSource(11))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	m, err := NewPreconditioner(PrecondIC0, OrderingAuto, PrecisionAuto, a)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(4)
	defer ws.Close()
	opt := Options{Tol: 1e-8, Precond: PrecondIC0, M: m, Work: ws, Workers: 4}
	if _, _, err := PCG(a, b, nil, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := PCG(a, b, nil, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per steady-state solve with parallel mat-vec, want 0", allocs)
	}
}

// TestGMRESWorkspaceMatchesPlain checks the GMRES workspace path against the
// plain path (same iterations, bitwise solution) and that repeated use of
// one workspace across PCG and GMRES solves stays consistent.
func TestGMRESWorkspaceMatchesPlain(t *testing.T) {
	a := elasticity3(6, 6, 5)
	rng := rand.New(rand.NewSource(13))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, wantStats, err := GMRES(a, b, nil, Options{Tol: 1e-9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(2)
	defer ws.Close()
	// Interleave a PCG solve to shuffle the workspace buffers between uses.
	if _, _, err := PCG(a, b, nil, Options{Tol: 1e-6, Work: ws}); err != nil {
		t.Fatal(err)
	}
	got, stats, err := GMRES(a, b, nil, Options{Tol: 1e-9, Work: ws, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != wantStats.Iterations {
		t.Errorf("workspace GMRES took %d iterations, plain %d", stats.Iterations, wantStats.Iterations)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("x[%d] = %x, plain %x (not bitwise equal)", i, got[i], want[i])
		}
	}
}

// TestSolveWithoutWorkspaceReleasesGang: a solve without Options.Work runs on
// a per-call workspace whose resident gang must be gone once the solve
// returns — on success and on every error return (breakdown,
// non-convergence, non-finite residual) — so repeated bare solves never
// leak goroutines.
func TestSolveWithoutWorkspaceReleasesGang(t *testing.T) {
	a := elasticity3(6, 6, 5)
	n := a.NRows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	nan := make([]float64, n)
	for i := range nan {
		nan[i] = math.NaN()
	}
	// -I: every search direction has pᵀAp < 0, so PCG breaks down at once.
	negTr := sparse.NewTriplet(n, n, n)
	for i := 0; i < n; i++ {
		negTr.Add(i, i, -1)
	}
	neg := negTr.ToCSR()
	base := runtime.NumGoroutine()
	opt := Options{Tol: 1e-9, Workers: 4}
	stalled := Options{Tol: 1e-14, MaxIter: 2, Workers: 4, Precond: PrecondNone}
	for trial := 0; trial < 5; trial++ {
		for name, solve := range map[string]func() error{
			"pcg":   func() error { _, _, err := PCG(a, b, nil, opt); return err },
			"gmres": func() error { _, _, err := GMRES(a, b, nil, opt); return err },
			"pcg-breakdown": func() error {
				_, _, err := PCG(neg, b, nil, Options{Workers: 4, Precond: PrecondNone})
				return wantErr(err, "breakdown")
			},
			"pcg-maxiter":     func() error { _, _, err := PCG(a, b, nil, stalled); return wantErr(err, "did not converge") },
			"gmres-maxiter":   func() error { _, _, err := GMRES(a, b, nil, stalled); return wantErr(err, "did not converge") },
			"pcg-nonfinite":   func() error { _, _, err := PCG(a, b, nan, opt); return wantErr(err, "non-finite") },
			"gmres-nonfinite": func() error { _, _, err := GMRES(a, b, nan, opt); return wantErr(err, "non-finite") },
		} {
			if err := solve(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
		}
	}
	// Pool.Close waits for the gang to exit, so every solve's goroutines
	// are gone by the time it returns.
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after repeated bare solves, want the baseline %d", got, base)
	}
}

// wantErr turns an expected solver error into nil, and anything else —
// success included — into a test failure message.
func wantErr(err error, substr string) error {
	if err == nil {
		return fmt.Errorf("solve succeeded, want an error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		return fmt.Errorf("error %q does not contain %q", err, substr)
	}
	return nil
}

// TestRCMFragmented exercises the rolling-cursor seed selection on a
// fragmented pattern (many disconnected chains): the result must stay a
// valid permutation that orders every component, matching the brute-force
// min-degree seed rule the cursor replaced.
func TestRCMFragmented(t *testing.T) {
	// 120 chains of varying length, plus isolated nodes.
	const chains = 120
	rng := rand.New(rand.NewSource(19))
	tpl := sparse.NewTriplet(0, 0, 0)
	_ = tpl
	n := 0
	type edge struct{ a, b int }
	var edges []edge
	for c := 0; c < chains; c++ {
		ln := 1 + rng.Intn(6)
		for i := 0; i < ln-1; i++ {
			edges = append(edges, edge{n + i, n + i + 1})
		}
		n += ln
	}
	tr := sparse.NewTriplet(n, n, 3*n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 4)
	}
	for _, e := range edges {
		tr.Add(e.a, e.b, -1)
		tr.Add(e.b, e.a, -1)
	}
	m := tr.ToCSR()
	perm := RCM(m)
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			t.Fatalf("perm is not a permutation at %d", p)
		}
		seen[p] = true
	}
	// The ordering must not inflate bandwidth: chains have bandwidth 1
	// under any component-contiguous ordering.
	pm := m.ToCSC().Permute(perm).ToCSR()
	if bw := Bandwidth(pm); bw > 2 {
		t.Errorf("fragmented RCM bandwidth %d, want ≤ 2", bw)
	}
}
