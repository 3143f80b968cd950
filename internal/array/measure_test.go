package array

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/rom"
	"repro/internal/solver"
)

// TestMeasureReducedGlobalPrecond regenerates the iterations/ms tables of
// docs/SOLVER_TUNING.md and the reduced_global_precond section of
// BENCH_global.json: PCG and GMRES (the serving default) on the reduced
// global matrix at coarse resolution, (5,5,5) nodes, Tol 1e-8, for each
// lattice size, preconditioner, and — for IC0 — symmetric ordering
// (natural, multicolor). It reports the cold solve (first solve on the
// lattice: preconditioner build + iterate), the warm solve (assembly-cached preconditioner, the serving path's
// per-scenario cost), and the factor's dependency-level shape (levels ×
// widest level), which is what the ordering changes. Run at -cpu 1 and
// -cpu 4 to measure the serial-fallback and fan-out regimes; the
// AutoIC0Threshold default and the OrderingAuto range come from these
// tables.
// Gated behind MEASURE=1 because the large lattices take minutes.
func TestMeasureReducedGlobalPrecond(t *testing.T) {
	if os.Getenv("MEASURE") == "" {
		t.Skip("set MEASURE=1 to run the measurement harness")
	}
	spec := rom.PaperSpec(15, mesh.CoarseResolution())
	spec.Nodes = [3]int{5, 5, 5}
	r, err := rom.Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		kind solver.PrecondKind
		ord  solver.OrderingKind
		prec solver.Precision
	}
	// The two explicit IC0 precisions at the natural ordering measure the
	// factor in both storage widths; the remaining orderings run at the auto
	// precision the serving path uses.
	variants := []variant{
		{solver.PrecondBlockJacobi3, solver.OrderingNatural, solver.PrecisionFloat64},
		{solver.PrecondIC0, solver.OrderingNatural, solver.PrecisionFloat64},
		{solver.PrecondIC0, solver.OrderingNatural, solver.PrecisionFloat32},
		{solver.PrecondIC0, solver.OrderingMulticolor, solver.PrecisionAuto},
	}
	for _, size := range []int{6, 12, 18} {
		base := &Problem{ROM: r, Bx: size, By: size, DeltaT: -250, BC: ClampedTopBottom}
		asm, err := NewAssembly(base, 0)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("MEASURE %dx%d gomaxprocs=%d free_dofs=%d nnz=%d assembly_build=%v\n",
			size, size, runtime.GOMAXPROCS(0), asm.NumFree(), asm.Blocked().ScalarNNZ, asm.BuildTime)
		for _, v := range variants {
			for _, sk := range []struct {
				name string
				kind SolverKind
			}{{"pcg", CG}, {"gmres", GMRES}} {
				solveOnce := func(a *Assembly) (*Solution, time.Duration) {
					p := *base
					p.Assembly = a
					p.Solver = sk.kind
					p.Opt = solver.Options{Tol: 1e-8, Precond: v.kind, Ordering: v.ord, Precision: v.prec}
					t0 := time.Now()
					sol, err := Solve(&p)
					if err != nil {
						t.Fatal(err)
					}
					return sol, time.Since(t0)
				}
				// Cold: fresh assembly copy → preconditioner built in-solve.
				coldAsm, err := NewAssembly(base, 0)
				if err != nil {
					t.Fatal(err)
				}
				coldSol, cold := solveOnce(coldAsm)
				// Warm: shared assembly whose preconditioner cache is populated.
				ap, err := asm.PreconditionerPrec(v.kind, v.ord, v.prec, 0)
				if err != nil {
					t.Fatal(err)
				}
				levels, width := -1, -1
				if fl, ok := ap.M.(solver.FactorLevels); ok {
					levels, width = fl.Levels()
				}
				var factorBytes int64 = -1
				if sz, ok := ap.M.(solver.Sized); ok {
					factorBytes = sz.MemoryBytes()
				}
				best := time.Duration(1 << 62)
				var warmSol *Solution
				for i := 0; i < 3; i++ {
					sol, d := solveOnce(asm)
					if d < best {
						best = d
					}
					warmSol = sol
				}
				fmt.Printf("MEASURE %dx%d %-5s %-14s %-10s prec=%-7s it=%3d cold=%7.0fms warm=%7.0fms build=%7.0fms apply=%6.0fms bytes=%9d levels=%5d width=%5d shared=%v\n",
					size, size, sk.name, v.kind, v.ord, warmSol.Precision, warmSol.Stats.Iterations,
					float64(cold)/1e6, float64(best)/1e6,
					float64(coldSol.Stats.PrecondBuild)/1e6,
					float64(warmSol.Stats.PrecondApply)/1e6,
					factorBytes,
					levels, width,
					warmSol.PrecondShared)
			}
		}
	}
}
