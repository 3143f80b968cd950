package array

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/rom"
	"repro/internal/solver"
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

// BenchmarkVMFieldReconstruction isolates the per-block reconstruction and
// mid-plane sampling (Eq. 15 post-processing).
func BenchmarkVMFieldReconstruction(b *testing.B) {
	r := benchROM(b)
	sol, err := Solve(&Problem{
		ROM: r, Bx: 6, By: 6, DeltaT: -250,
		BC: ClampedTopBottom, Opt: solver.Options{Tol: 1e-9},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sol.VMField(20, 0)
	}
}
