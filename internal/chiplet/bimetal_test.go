package chiplet

import (
	"math"
	"testing"

	"repro/internal/fem"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/solver"
)

// TestBimetalCurvatureMatchesTimoshenko validates the warpage physics of the
// package solver against the classical Timoshenko bimetal-strip solution
// (the analytic family behind the paper's warpage reference [26]): a free
// two-layer plate under uniform ΔT bends with curvature
//
//	κ = 6·E1'·E2'·t1·t2·(t1+t2)·Δα·ΔT /
//	    (E1'²t1⁴ + 4E1'E2't1³t2 + 6E1'E2't1²t2² + 4E1'E2't1t2³ + E2'²t2⁴)
//
// with the biaxial moduli E' = E/(1−ν) for an equi-biaxially bending plate.
func TestBimetalCurvatureMatchesTimoshenko(t *testing.T) {
	if testing.Short() {
		t.Skip("bimetal plate solve is slow")
	}
	// Layer 1 (bottom): composite; layer 2 (top): silicon.
	m1 := material.Composite
	m2 := material.Silicon
	const (
		side   = 1000.0 // µm
		t1     = 100.0
		t2     = 100.0
		deltaT = -100.0
	)

	// Mesh the plate: coarse laterally, a few cells per layer.
	xs := mesh.UniformAxis(0, side, 16)
	zs := append(mesh.UniformAxis(0, t1, 3), mesh.UniformAxis(t1, t1+t2, 3)[1:]...)
	g, err := mesh.NewGrid(xs, append([]float64(nil), xs...), zs)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignMaterials(func(c mesh.Vec3) uint8 {
		if c.Z < t1 {
			return 0
		}
		return 1
	})
	model := &fem.Model{Grid: g, Mats: []material.Material{m1, m2}}
	asm, err := model.Assemble(8)
	if err != nil {
		t.Fatal(err)
	}
	// Free plate with 3-2-1 constraints at the bottom center.
	nn := g.NumNodes()
	isBC := make([]bool, 3*nn)
	a := nearestNode(g, mesh.Vec3{X: side / 2, Y: side / 2, Z: 0})
	b := nearestNode(g, mesh.Vec3{X: side * 0.9, Y: side / 2, Z: 0})
	c := nearestNode(g, mesh.Vec3{X: side / 2, Y: side * 0.9, Z: 0})
	isBC[3*a], isBC[3*a+1], isBC[3*a+2] = true, true, true
	isBC[3*b+1], isBC[3*b+2] = true, true
	isBC[3*c+2] = true
	red, err := fem.Reduce(asm.K, asm.F, isBC)
	if err != nil {
		t.Fatal(err)
	}
	xf, _, err := solver.PCG(red.Aff, red.RHS(deltaT, nil), nil, solver.Options{Tol: 1e-9, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	u := red.Expand(xf, nil)

	// Fit the curvature of the bottom face along the x centerline through
	// the center region (avoiding edge effects): uz ≈ uz0 + κ/2·(x−x0)².
	x0 := side / 2
	uzAt := func(x float64) float64 {
		return model.DisplacementAtPoint(u, mesh.Vec3{X: x, Y: side / 2, Z: 0})[2]
	}
	// Central second difference over a wide stencil.
	h := side / 5
	kappa := (uzAt(x0+h) - 2*uzAt(x0) + uzAt(x0-h)) / (h * h)

	e1 := m1.E / (1 - m1.Nu)
	e2 := m2.E / (1 - m2.Nu)
	dAlpha := m2.CTE - m1.CTE
	num := 6 * e1 * e2 * t1 * t2 * (t1 + t2) * dAlpha * deltaT
	den := e1*e1*math.Pow(t1, 4) + 4*e1*e2*math.Pow(t1, 3)*t2 +
		6*e1*e2*t1*t1*t2*t2 + 4*e1*e2*t1*math.Pow(t2, 3) + e2*e2*math.Pow(t2, 4)
	// Sign convention: Timoshenko's positive κ (top layer effectively
	// longer) is a dome — center above the edges — which is a *negative*
	// second derivative of uz(x). Map the formula into the uz'' convention.
	want := -num / den

	rel := math.Abs(kappa-want) / math.Abs(want)
	t.Logf("curvature: FEM %.4e 1/µm, Timoshenko %.4e 1/µm (rel. diff %.1f%%)", kappa, want, 100*rel)
	// The plate is finite and moderately thick; 15% agreement confirms the
	// warpage physics (sign, magnitude, and material dependence).
	if rel > 0.15 {
		t.Errorf("curvature off by %.1f%%", 100*rel)
	}
	// Sign check: silicon on top of high-CTE composite under cooling warps
	// the package convex up (edges of the bottom face move up relative to
	// the center ⇒ κ > 0 for Δα·ΔT > 0).
	if math.Signbit(kappa) != math.Signbit(want) {
		t.Error("curvature has the wrong sign")
	}
}
