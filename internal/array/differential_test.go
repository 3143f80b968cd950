package array

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/solver"
)

// TestDifferentialSolverMatrix is the differential correctness matrix: every
// surviving (solver, preconditioner, ordering, precision) tuple must agree
// with the direct sparse Cholesky solve of the same reduced system to
// max|q − q_direct| ≤ 1e-8·max|q| at Tol 1e-11. Ordering and precision only
// shape the IC0 factor, so only IC0 runs across those two axes; the other
// kinds run once each. The lattices cover the single block, the small 1×2
// and 2×3 lattices (Auto factors IC0 at every size), two strips and a
// square on the served (5,5,5) coarse cell, each clamped and with
// prescribed boundary displacements; every IC0 tuple factors in the
// assembly's two-ended order, whatever ordering it names. Agreeing with one
// reference, the tuples agree with each other, so the matrix stands in for
// pairwise GMRES/CG/direct comparisons on the reduced system.
func TestDifferentialSolverMatrix(t *testing.T) {
	r := servedROM(t, true)
	type tuple struct {
		kind solver.PrecondKind
		ord  solver.OrderingKind
		prec solver.Precision
	}
	var tuples []tuple
	for _, k := range []solver.PrecondKind{solver.PrecondAuto, solver.PrecondBlockJacobi3, solver.PrecondIC0, solver.PrecondNone} {
		if k != solver.PrecondIC0 {
			tuples = append(tuples, tuple{k, solver.OrderingAuto, solver.PrecisionAuto})
			continue
		}
		for _, o := range []solver.OrderingKind{solver.OrderingAuto, solver.OrderingNatural} {
			for _, pr := range []solver.Precision{solver.PrecisionAuto, solver.PrecisionFloat64, solver.PrecisionFloat32} {
				tuples = append(tuples, tuple{k, o, pr})
			}
		}
	}
	const workers = 2
	// A non-uniform prescribed field, so the boundary lift carries load.
	disp := func(p mesh.Vec3) [3]float64 { return [3]float64{1e-4 * p.X, -2e-4 * p.Y, 5e-5 * (p.X + p.Z)} }
	for _, lat := range []struct{ bx, by int }{{1, 1}, {1, 2}, {2, 3}, {1, 6}, {5, 5}, {1, 48}} {
		for _, bc := range []BCKind{ClampedTopBottom, PrescribedBoundary} {
			name := fmt.Sprintf("%dx%d/%s", lat.bx, lat.by, map[BCKind]string{ClampedTopBottom: "clamped", PrescribedBoundary: "prescribed"}[bc])
			t.Run(name, func(t *testing.T) {
				if lat.by >= 48 && testing.Short() {
					t.Skip("large lattice skipped under -short")
				}
				base := Problem{ROM: r, Bx: lat.bx, By: lat.by, DeltaT: -250, BC: bc}
				if bc == PrescribedBoundary {
					base.BoundaryDisp = disp
				}
				asm, err := NewAssembly(&base, 0)
				if err != nil {
					t.Fatal(err)
				}
				base.Assembly = asm
				t.Logf("%d free DoFs", asm.NumFree()) // 1×1 prescribed constrains every DoF
				direct := base
				direct.Solver = Direct
				ref, err := Solve(&direct)
				if err != nil {
					t.Fatal(err)
				}
				scale := 0.0
				for _, v := range ref.Q {
					scale = math.Max(scale, math.Abs(v))
				}
				if scale == 0 {
					t.Fatal("direct solution is identically zero")
				}
				for _, sk := range []struct {
					name string
					kind SolverKind
				}{{"gmres", GMRES}, {"cg", CG}} {
					for _, tu := range tuples {
						p := base
						p.Solver = sk.kind
						p.Opt = solver.Options{Tol: 1e-11, Workers: workers, Precond: tu.kind, Ordering: tu.ord, Precision: tu.prec}
						sol, err := Solve(&p)
						if err != nil {
							t.Errorf("%s %v/%v/%v: %v", sk.name, tu.kind, tu.ord, tu.prec, err)
							continue
						}
						var diff float64
						for i, v := range sol.Q {
							diff = math.Max(diff, math.Abs(v-ref.Q[i]))
						}
						if diff > 1e-8*scale {
							t.Errorf("%s %v/%v/%v: max|q − q_direct| = %.3g, want ≤ 1e-8·%.3g (%d iterations)",
								sk.name, tu.kind, tu.ord, tu.prec, diff, scale, sol.Stats.Iterations)
						}
						want := solver.OrderingNatural
						if sol.Stats.Precond == solver.PrecondIC0 {
							want = solver.OrderingTwoEnded // the assembly's A_ff carries its order
						}
						if sol.Ordering != want {
							t.Errorf("%s %v/%v: ordering %v, want %v", sk.name, tu.kind, tu.ord, sol.Ordering, want)
						}
					}
				}
			})
		}
	}
}
