package reffem

import (
	"fmt"
	"testing"

	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/solver"
)

// BenchmarkAblationPrecond compares CG preconditioners on a real TSV-array
// stiffness matrix — the iterative-solver design space behind the reference
// baseline (DESIGN.md §5).
func BenchmarkAblationPrecond(b *testing.B) {
	for _, kind := range []struct {
		name string
		k    solver.PrecondKind
	}{
		{"BlockJacobi3", solver.PrecondBlockJacobi3},
		{"IC0", solver.PrecondIC0},
	} {
		b.Run(kind.name, func(b *testing.B) {
			var its int
			for i := 0; i < b.N; i++ {
				r, err := Solve(&Problem{
					Geom: mesh.PaperGeometry(15), Mats: material.DefaultTSVSet(),
					Res: mesh.CoarseResolution(), Bx: 3, By: 3,
					DeltaT: -250, BC: ClampedTopBottom,
					Precond: kind.k, Opt: solver.Options{Tol: 1e-8},
				})
				if err != nil {
					b.Fatal(err)
				}
				its = r.Stats.Iterations
			}
			b.ReportMetric(float64(its), "iters")
		})
	}
}

// BenchmarkReferenceScaling measures how the conventional-FEM cost grows
// with array size — the left columns of Table 1.
func BenchmarkReferenceScaling(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("size=%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Solve(&Problem{
					Geom: mesh.PaperGeometry(15), Mats: material.DefaultTSVSet(),
					Res: mesh.CoarseResolution(), Bx: n, By: n,
					DeltaT: -250, BC: ClampedTopBottom,
					Opt: solver.Options{Tol: 1e-8},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
