package solver_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/mesh"
	"repro/internal/rom"
	"repro/internal/solver"
	"repro/internal/sparse"
)

var served struct {
	once sync.Once
	rom  *rom.ROM
	err  error
}

// servedMatrix assembles the reduced global matrix and unit load of a
// size×size lattice of the (5,5,5)-node coarse unit cell that serving
// builds by default, clamped top and bottom. The unit cell is built once
// per test binary.
func servedMatrix(tb testing.TB, size int) (*sparse.BCSR, []float64) {
	tb.Helper()
	served.once.Do(func() {
		s := rom.PaperSpec(15, mesh.CoarseResolution())
		s.Nodes = [3]int{5, 5, 5}
		served.rom, served.err = rom.Build(s, 0)
	})
	if served.err != nil {
		tb.Fatal(served.err)
	}
	asm, err := array.NewAssembly(&array.Problem{ROM: served.rom, Bx: size, By: size, DeltaT: -250, BC: array.ClampedTopBottom}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return asm.Blocked(), asm.Red.Bf
}

var orderings = []solver.OrderingKind{solver.OrderingNatural, solver.OrderingMulticolor}

// TestIC0MatchesReferenceOnServedTiles: the served tiles store exact zeros
// (couplings that vanish), which the scalar reference drops from its
// pattern and the block factor keeps. With every stored zero set to a tiny
// nonzero both factor the same pattern, and must agree to rounding.
func TestIC0MatchesReferenceOnServedTiles(t *testing.T) {
	m, _ := servedMatrix(t, 6)
	a := *m
	a.Vals = append([]float64(nil), m.Vals...)
	for i, v := range a.Vals {
		if v == 0 {
			a.Vals[i] = 1e-200
		}
	}
	for _, ord := range orderings {
		factorRel, applyRel, err := solver.CompareWithReference(&a, ord, 83)
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		t.Logf("%v: factor %.3g, apply %.3g relative", ord, factorRel, applyRel)
		if factorRel > 1e-12 || applyRel > 1e-12 {
			t.Errorf("%v: factor differs by %.3g, apply by %.3g relative, want ≤ 1e-12", ord, factorRel, applyRel)
		}
	}
}

// TestIC0IterationsMatchReferenceOnServed: on the served matrices as
// assembled the block factor is IC(0) on a slightly larger pattern than the
// scalar reference (it keeps the stored zeros), and GMRES must converge in
// the same number of iterations, ±1, under either factor.
func TestIC0IterationsMatchReferenceOnServed(t *testing.T) {
	for _, size := range []int{6, 12} {
		a, b := servedMatrix(t, size)
		for _, ord := range orderings {
			iters := func(m solver.Preconditioner, err error) int {
				t.Helper()
				if err != nil {
					t.Fatalf("%dx%d/%v: %v", size, size, ord, err)
				}
				_, st, err := solver.GMRES(a, b, nil, solver.Options{Tol: 1e-8, M: m})
				if err != nil {
					t.Fatalf("%dx%d/%v: %v", size, size, ord, err)
				}
				return st.Iterations
			}
			ref := iters(solver.ReferenceIC0(a, ord))
			got := iters(solver.NewPreconditioner(solver.PrecondIC0, ord, solver.PrecisionFloat64, a))
			t.Logf("%dx%d/%v: %d GMRES iterations under the block factor, %d under the reference", size, size, ord, got, ref)
			if got < ref-1 || got > ref+1 {
				t.Errorf("%dx%d/%v: %d GMRES iterations under the block factor, %d under the reference", size, size, ord, got, ref)
			}
		}
	}
}

// BenchmarkIC0Build times one float32 IC0 build — the serving default — on
// the served 6×6 and 12×12 lattices under both orderings: the cold
// global-stage term a new lattice pays once.
func BenchmarkIC0Build(b *testing.B) {
	for _, size := range []int{6, 12} {
		a, _ := servedMatrix(b, size)
		for _, ord := range orderings {
			b.Run(fmt.Sprintf("%dx%d/%v", size, size, ord), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := solver.NewPreconditioner(solver.PrecondIC0, ord, solver.PrecisionFloat32, a); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
