package array

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mesh"
	"repro/internal/rom"
	"repro/internal/solver"
	"repro/internal/sparse"
)

func benchROM(b *testing.B) *rom.ROM {
	b.Helper()
	spec := rom.PaperSpec(15, mesh.CoarseResolution())
	r, err := rom.Build(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkGlobalAssembly times NewAssembly — lattice enumeration, the 3×3
// tile scatter of every block's element stiffness straight into the
// reduced A_ff (Eqs. 18–19), and the unit load — on the (5,5,5)-node coarse
// unit cell serving builds by default, the once-per-lattice setup every
// cold design pays.
func BenchmarkGlobalAssembly(b *testing.B) {
	r := servedROM(b, true)
	for _, n := range []int{6, 12} {
		b.Run(fmt.Sprintf("size=%dx%d", n, n), func(b *testing.B) {
			p := &Problem{ROM: r, Bx: n, By: n, DeltaT: -250, BC: ClampedTopBottom}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				asm, err := NewAssembly(p, 0)
				if err != nil {
					b.Fatal(err)
				}
				if asm.NumFree() == 0 {
					b.Fatal("empty assembly")
				}
			}
		})
	}
}

// BenchmarkServedMulVec times the product every Krylov iteration of a
// served solve runs: the 12×12 A_ff of the (5,5,5)-node coarse unit cell
// serving builds by default, held as its upper tiles over a 2 547-entry
// tile dictionary. The serial row runs the stripes in order on a
// caller-owned spill slab; the pooled row shares them across a resident
// gang of GOMAXPROCS workers, as a solver workspace does.
func BenchmarkServedMulVec(b *testing.B) {
	r := servedROM(b, true)
	asm, err := NewAssembly(&Problem{ROM: r, Bx: 12, By: 12, DeltaT: -250, BC: ClampedTopBottom}, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := asm.Blocked()
	x := make([]float64, a.NCols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	op := &sparse.BlockMatVec{M: a, Dst: make([]float64, a.NRows), X: x, Spill: make([]float64, a.SpillLen())}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op.RunRange(0, a.NBRows())
			op.Fold()
		}
	})
	b.Run("pooled", func(b *testing.B) {
		pool := sparse.NewPool(runtime.GOMAXPROCS(0))
		defer pool.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool.Run(a.Stripes(), op)
			op.Fold()
		}
	})
}

// BenchmarkServedIC0Apply times one application of the preconditioner
// every Krylov iteration of a served solve runs: the float32 IC0 factor
// PreconditionerPrec builds on the 12×12 lattice of the (5,5,5)-node coarse
// unit cell, in its two-ended order. The serial row is Apply; the pooled
// row applies it through a 2-worker solver Workspace, which runs each
// sweep's two halves at once.
func BenchmarkServedIC0Apply(b *testing.B) {
	_, m := servedFactor(b, 12, 12)
	r := make([]float64, 3*m.(solver.TriFactor).Factor().NBRows())
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	dst := make([]float64, len(r))
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Apply(dst, r)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		ws := solver.NewWorkspace(2)
		defer ws.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ws.Apply(m, dst, r)
		}
	})
}

// BenchmarkGlobalSolvers compares the three global solver paths on the same
// problem (design-choice ablation, §4.3).
func BenchmarkGlobalSolvers(b *testing.B) {
	r := benchROM(b)
	for _, kind := range []struct {
		name string
		k    SolverKind
	}{{"GMRES", GMRES}, {"CG", CG}, {"Direct", Direct}} {
		b.Run(kind.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Solve(&Problem{
					ROM: r, Bx: 8, By: 8, DeltaT: -250,
					BC: ClampedTopBottom, Solver: kind.k,
					Opt: solver.Options{Tol: 1e-9},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVMFieldReconstruction times Solution.VMField on a 6×6 lattice of
// the (5,5,5)-node coarse unit cell serving builds by default, at the
// per-block grid sizes of a /solve response (gs=40) and of a ΔT-sweep
// scenario (gs=10). The gs rows time the Eq. 15 reconstruction on the
// mid-height cut plane and its von Mises sampling, the path of per-block
// loads and of each unit field's first build; the uniform rows time a warm
// SolveUniform answer, |ΔT| times its cached unit field.
func BenchmarkVMFieldReconstruction(b *testing.B) {
	r := servedROM(b, true)
	p := &Problem{ROM: r, Bx: 6, By: 6, DeltaT: -250, BC: ClampedTopBottom}
	sol, err := Solve(p)
	if err != nil {
		b.Fatal(err)
	}
	asm, err := NewAssembly(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	p.Assembly = asm
	uniform, err := SolveUniform(p)
	if err != nil {
		b.Fatal(err)
	}
	run := func(s *Solution, gs int) func(*testing.B) {
		return func(b *testing.B) {
			s.VMField(gs, 0) // a uniform answer's first call samples the unit field
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if f := s.VMField(gs, 0); len(f.V) != 36*gs*gs {
					b.Fatal("wrong field size")
				}
			}
		}
	}
	for _, gs := range []int{40, 10} {
		b.Run(fmt.Sprintf("gs=%d", gs), run(sol, gs))
	}
	b.Run("uniform", func(b *testing.B) {
		for _, gs := range []int{40, 10} {
			b.Run(fmt.Sprintf("gs=%d", gs), run(uniform, gs))
		}
	})
}
