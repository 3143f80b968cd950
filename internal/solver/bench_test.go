package solver

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

func benchMatrix(nx, ny, nz int) (*sparse.CSR, []float64) {
	a := laplacian3D(nx, ny, nz)
	rng := rand.New(rand.NewSource(42))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

func BenchmarkCholeskyFactor(b *testing.B) {
	a, _ := benchMatrix(20, 20, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolve(b *testing.B) {
	a, rhs := benchMatrix(20, 20, 10)
	chol, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, a.NRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chol.SolveInto(dst, rhs)
	}
}

func BenchmarkPCG(b *testing.B) {
	a, rhs := benchMatrix(19, 20, 10)
	at := tiled(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PCG(at, rhs, nil, Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGMRES(b *testing.B) {
	a, rhs := benchMatrix(19, 20, 10)
	at := tiled(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GMRES(at, rhs, nil, Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFactorReuse quantifies the design choice of §4.2: the
// local stage factorizes A_ff once and reuses it for all n+1 right-hand
// sides. The alternative — an iterative solve per right-hand side — is what
// the reuse avoids.
func BenchmarkAblationFactorReuse(b *testing.B) {
	a, _ := benchMatrix(15, 16, 8)
	at := tiled(a)
	rng := rand.New(rand.NewSource(7))
	const nrhs = 32
	rhss := make([][]float64, nrhs)
	for i := range rhss {
		rhss[i] = make([]float64, a.NRows)
		for j := range rhss[i] {
			rhss[i][j] = rng.NormFloat64()
		}
	}
	b.Run("factor-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chol, err := NewCholesky(a)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float64, a.NRows)
			for _, rhs := range rhss {
				chol.SolveInto(dst, rhs)
			}
		}
	})
	b.Run("iterative-per-rhs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, rhs := range rhss {
				if _, _, err := PCG(at, rhs, nil, Options{Tol: 1e-8}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// latticeLike builds an SPD matrix with the row density of the reduced
// global matrices (dense per-node blocks over a 2D 9-point grid). Like the
// real reduced matrices in natural lattice order, its IC0 factor has no
// independent second half worth a chunk, so this is the serial-fallback
// exemplar: the pooled apply must add no overhead.
func latticeLike(nx, ny, bs int) *sparse.CSR {
	rng := rand.New(rand.NewSource(8))
	nodes := nx * ny
	n := nodes * bs
	t := sparse.NewTriplet(n, n, nodes*9*bs*bs)
	rowSum := make([]float64, n)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			node := y*nx + x
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					xx, yy := x+dx, y+dy
					if xx < 0 || xx >= nx || yy < 0 || yy >= ny {
						continue
					}
					other := yy*nx + xx
					if other < node {
						continue // add each block pair once, symmetrically
					}
					for i := 0; i < bs; i++ {
						for j := 0; j < bs; j++ {
							if other == node && j < i {
								continue
							}
							v := rng.NormFloat64()
							r, c := node*bs+i, other*bs+j
							if r == c {
								continue
							}
							t.Add(r, c, v)
							t.Add(c, r, v)
							rowSum[r] += abs(v)
							rowSum[c] += abs(v)
						}
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		t.Add(i, i, rowSum[i]+1)
	}
	return t.ToCSR()
}

// blockIndependent builds an SPD matrix of many independent dense blocks,
// whose IC0 sweeps split into two equal independent halves with no tail.
func blockIndependent(blocks, bs int) *sparse.CSR {
	rng := rand.New(rand.NewSource(12))
	n := blocks * bs
	t := sparse.NewTriplet(n, n, blocks*bs*bs)
	for blk := 0; blk < blocks; blk++ {
		base := blk * bs
		for i := 0; i < bs; i++ {
			rowSum := 0.0
			for j := 0; j < i; j++ {
				v := rng.NormFloat64()
				t.Add(base+i, base+j, v)
				t.Add(base+j, base+i, v)
				rowSum += abs(v)
			}
			t.Add(base+i, base+i, float64(bs)+rowSum)
		}
	}
	return t.ToCSR()
}

// BenchmarkIC0Apply compares the serial reference application of the IC0
// preconditioner against the two-phase one dispatched through a resident
// Workspace gang (the "levelsched-pool" rows, named before the two-phase
// schedule replaced the dependency-level one; the pins keep the name). The
// narrowDAG system mimics the reduced global matrices in natural lattice
// order: it has no second half worth a chunk, so the pooled row takes the
// serial loop and must track serial with no overhead. The wideDAG system
// (independent dense blocks) splits into two equal halves, which the gang
// runs at once — run with -cpu 1,4 to see it.
func BenchmarkIC0Apply(b *testing.B) {
	systems := []struct {
		name string
		a    *sparse.BCSR
	}{
		{"narrowDAG", tiled(latticeLike(28, 28, 15))}, // 11760 DoFs, ~250 nnz/row
		{"wideDAG", tiled(blockIndependent(600, 24))}, // 14400 DoFs, 24 levels × 600 rows
	}
	rng := rand.New(rand.NewSource(3))
	workers := runtime.GOMAXPROCS(0)
	for _, sys := range systems {
		p, err := newIC0(sys.a, PrecisionAuto)
		if err != nil {
			b.Fatal(err)
		}
		r := make([]float64, sys.a.NRows)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		dst := make([]float64, sys.a.NRows)
		b.Run(sys.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Apply(dst, r)
			}
		})
		b.Run(sys.name+"/levelsched-pool", func(b *testing.B) {
			ws := NewWorkspace(workers)
			defer ws.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.applyPar(dst, r, ws)
			}
		})
	}
}

// BenchmarkIC0ApplyBlocked measures the 3×3-tiled factor application on the
// same system as BenchmarkIC0Apply's narrowDAG (latticeLike(28,28,15):
// 11760 DoFs of dense node tiles, the reduced-global regime) in both storage
// precisions — the apply is bandwidth-bound, so the halved factor bytes
// show up as serial ns/op. Run with -cpu 1,4; the pool rows dispatch
// through a resident Workspace gang.
func BenchmarkIC0ApplyBlocked(b *testing.B) {
	a := tiled(latticeLike(28, 28, 15))
	f64, err := newIC0(a, PrecisionFloat64)
	if err != nil {
		b.Fatal(err)
	}
	f32, err := newIC0(a, PrecisionAuto)
	if err != nil {
		b.Fatal(err)
	}
	if f32.FactorPrecision() != PrecisionFloat32 {
		b.Fatalf("auto factor precision %v, want float32", f32.FactorPrecision())
	}
	rng := rand.New(rand.NewSource(3))
	r := make([]float64, a.NRows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	dst := make([]float64, a.NRows)
	workers := runtime.GOMAXPROCS(0)
	serial := func(p *ic0) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Apply(dst, r)
			}
		}
	}
	pooled := func(p *ic0) func(b *testing.B) {
		return func(b *testing.B) {
			ws := NewWorkspace(workers)
			defer ws.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.applyPar(dst, r, ws)
			}
		}
	}
	b.Run("f64/serial", serial(f64))
	b.Run("f32/serial", serial(f32))
	b.Run("f64/pool", pooled(f64))
	b.Run("f32/pool", pooled(f32))
}

// BenchmarkPCGNoAlloc measures the allocation-free steady-state PCG loop:
// reusable Workspace (resident gang), prebuilt IC0 preconditioner, pooled
// work vectors. Must report 0 allocs/op after the warmup solve
// (TestPCGZeroAllocs asserts the same contract).
func BenchmarkPCGNoAlloc(b *testing.B) {
	a := tiled(elasticity3(12, 12, 8))
	rng := rand.New(rand.NewSource(4))
	rhs := make([]float64, a.NRows)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	m, err := NewPreconditioner(PrecondIC0, PrecisionAuto, a)
	if err != nil {
		b.Fatal(err)
	}
	ws := NewWorkspace(runtime.GOMAXPROCS(0))
	defer ws.Close()
	opt := Options{Tol: 1e-8, Precond: PrecondIC0, M: m, Work: ws}
	if _, _, err := PCG(a, rhs, nil, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PCG(a, rhs, nil, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCGPrecond compares the preconditioners on a 3-DoF-per-node
// elasticity-like system — the data behind docs/SOLVER_TUNING.md. The
// iterations metric is the converged iteration count.
func BenchmarkPCGPrecond(b *testing.B) {
	a := tiled(elasticity3(12, 12, 8))
	rng := rand.New(rand.NewSource(42))
	rhs := make([]float64, a.NRows)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	for _, kind := range []PrecondKind{PrecondNone, PrecondBlockJacobi3, PrecondIC0} {
		b.Run(kind.String(), func(b *testing.B) {
			var its int
			for i := 0; i < b.N; i++ {
				_, stats, err := PCG(a, rhs, nil, Options{Tol: 1e-8, Precond: kind})
				if err != nil {
					b.Fatal(err)
				}
				its = stats.Iterations
			}
			b.ReportMetric(float64(its), "iterations")
		})
	}
}
