package fem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/solver"
	"repro/internal/sparse"
)

func TestShapeFunctionsPartitionOfUnity(t *testing.T) {
	f := func(xi, eta, zeta float64) bool {
		xi = math.Mod(xi, 1)
		eta = math.Mod(eta, 1)
		zeta = math.Mod(zeta, 1)
		n := ShapeFunctions(xi, eta, zeta)
		var s float64
		for _, v := range n {
			s += v
		}
		return math.Abs(s-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShapeFunctionsKroneckerDelta(t *testing.T) {
	for a := 0; a < 8; a++ {
		s := vtkSigns[a]
		n := ShapeFunctions(s[0], s[1], s[2])
		for b := 0; b < 8; b++ {
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(n[b]-want) > 1e-14 {
				t.Fatalf("N_%d at node %d = %g", b, a, n[b])
			}
		}
	}
}

func TestShapeGradientsSumToZero(t *testing.T) {
	// Gradients of a partition of unity sum to zero.
	g := ShapeGradients(0.3, -0.2, 0.7, 2, 3, 4)
	for c := 0; c < 3; c++ {
		var s float64
		for a := 0; a < 8; a++ {
			s += g[a][c]
		}
		if math.Abs(s) > 1e-12 {
			t.Errorf("gradient component %d sums to %g", c, s)
		}
	}
}

func TestShapeGradientsLinearExactness(t *testing.T) {
	// The element must reproduce the gradient of a linear field exactly.
	hx, hy, hz := 1.5, 2.5, 0.5
	coeff := [3]float64{2, -3, 4}
	g := ShapeGradients(0.1, 0.2, -0.3, hx, hy, hz)
	// Node values of f(x,y,z) = 2x − 3y + 4z on the element [0,hx]×…
	var grad [3]float64
	for a := 0; a < 8; a++ {
		s := vtkSigns[a]
		x := (s[0] + 1) / 2 * hx
		y := (s[1] + 1) / 2 * hy
		z := (s[2] + 1) / 2 * hz
		f := coeff[0]*x + coeff[1]*y + coeff[2]*z
		for c := 0; c < 3; c++ {
			grad[c] += g[a][c] * f
		}
	}
	for c := 0; c < 3; c++ {
		if math.Abs(grad[c]-coeff[c]) > 1e-12 {
			t.Errorf("gradient %d = %g, want %g", c, grad[c], coeff[c])
		}
	}
}

func TestElemStiffnessProperties(t *testing.T) {
	em := ComputeElemMats(1.2, 0.8, 2.0, material.Silicon)
	// Symmetry.
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			if math.Abs(em.K[i][j]-em.K[j][i]) > 1e-6*math.Abs(em.K[i][j]) {
				t.Fatalf("K not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Rigid translation in each direction is in the null space.
	for c := 0; c < 3; c++ {
		for i := 0; i < 24; i++ {
			var s float64
			for a := 0; a < 8; a++ {
				s += em.K[i][3*a+c]
			}
			if math.Abs(s) > 1e-6 {
				t.Fatalf("translation %d not in null space: row %d -> %g", c, i, s)
			}
		}
	}
	// Thermal load is equilibrated (sums to zero per component).
	for c := 0; c < 3; c++ {
		var s float64
		for a := 0; a < 8; a++ {
			s += em.F[3*a+c]
		}
		if math.Abs(s) > 1e-6 {
			t.Errorf("thermal load component %d sums to %g", c, s)
		}
	}
}

func TestElemStiffnessRotationNullSpace(t *testing.T) {
	// Infinitesimal rigid rotation about z: u = (−y, x, 0) must produce
	// zero strain energy.
	hx, hy, hz := 1.0, 1.0, 1.0
	em := ComputeElemMats(hx, hy, hz, material.Copper)
	var u [24]float64
	for a := 0; a < 8; a++ {
		s := vtkSigns[a]
		x := (s[0] + 1) / 2 * hx
		y := (s[1] + 1) / 2 * hy
		u[3*a] = -y
		u[3*a+1] = x
	}
	var energy float64
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			energy += u[i] * em.K[i][j] * u[j]
		}
	}
	if math.Abs(energy) > 1e-6 {
		t.Errorf("rotation strain energy %g", energy)
	}
}

// homogeneousModel builds a small single-material block model.
func homogeneousModel(t *testing.T, nx, ny, nz int, mat material.Material) *Model {
	t.Helper()
	g, err := mesh.NewGrid(mesh.UniformAxis(0, 2, nx), mesh.UniformAxis(0, 3, ny), mesh.UniformAxis(0, 1, nz))
	if err != nil {
		t.Fatal(err)
	}
	return &Model{Grid: g, Mats: []material.Material{mat}}
}

func TestAssembleSymmetricSPD(t *testing.T) {
	m := homogeneousModel(t, 3, 3, 3, material.Silicon)
	asm, err := m.Assemble(4)
	if err != nil {
		t.Fatal(err)
	}
	if !symmetric(asm.K, 1e-10) {
		t.Error("stiffness not symmetric")
	}
	// With all-boundary Dirichlet the reduced matrix must factor (SPD).
	nn := m.Grid.NumNodes()
	isBC := make([]bool, 3*nn)
	for n := 0; n < nn; n++ {
		if m.Grid.OnBoundary(n) {
			isBC[3*n], isBC[3*n+1], isBC[3*n+2] = true, true, true
		}
	}
	red, err := Reduce(asm.K, asm.F, isBC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.NewCholesky(red.Aff); err != nil {
		t.Errorf("reduced stiffness not SPD: %v", err)
	}
}

func TestAssembleSerialParallelIdentical(t *testing.T) {
	m := homogeneousModel(t, 4, 3, 2, material.Copper)
	a1, err := m.Assemble(1)
	if err != nil {
		t.Fatal(err)
	}
	a8, err := m.Assemble(8)
	if err != nil {
		t.Fatal(err)
	}
	if a1.K.NNZ() != a8.K.NNZ() {
		t.Fatal("nnz differs")
	}
	for i := range a1.K.Vals {
		if a1.K.Vals[i] != a8.K.Vals[i] {
			t.Fatal("values differ between serial and parallel assembly")
		}
	}
	for i := range a1.F {
		if a1.F[i] != a8.F[i] {
			t.Fatal("load differs between serial and parallel assembly")
		}
	}
}

// solveDirichlet solves the model with boundary displacement given by fn and
// thermal load deltaT, returning the full displacement vector.
func solveDirichlet(t *testing.T, m *Model, deltaT float64, fn func(p mesh.Vec3) [3]float64) []float64 {
	t.Helper()
	asm, err := m.Assemble(2)
	if err != nil {
		t.Fatal(err)
	}
	nn := m.Grid.NumNodes()
	isBC := make([]bool, 3*nn)
	var bcNodes []int
	for n := 0; n < nn; n++ {
		if m.Grid.OnBoundary(n) {
			isBC[3*n], isBC[3*n+1], isBC[3*n+2] = true, true, true
			bcNodes = append(bcNodes, n)
		}
	}
	red, err := Reduce(asm.K, asm.F, isBC)
	if err != nil {
		t.Fatal(err)
	}
	ubc := make([]float64, len(red.BCIdx))
	for bi, n := range bcNodes {
		d := fn(m.Grid.NodeCoord(n))
		ubc[3*bi], ubc[3*bi+1], ubc[3*bi+2] = d[0], d[1], d[2]
	}
	chol, err := solver.NewCholesky(red.Aff)
	if err != nil {
		t.Fatal(err)
	}
	xf := chol.Solve(red.RHS(deltaT, ubc))
	return red.Expand(xf, ubc)
}

func TestPatchTestLinearField(t *testing.T) {
	// Patch test: a linear boundary displacement with ΔT = 0 must be
	// reproduced exactly in the interior, with constant strain.
	m := homogeneousModel(t, 3, 4, 3, material.Silicon)
	lin := func(p mesh.Vec3) [3]float64 {
		return [3]float64{
			1e-3*p.X + 2e-3*p.Y - 1e-3*p.Z,
			-2e-3*p.X + 1e-3*p.Y,
			3e-3*p.Z + 1e-3*p.X,
		}
	}
	u := solveDirichlet(t, m, 0, lin)
	for n := 0; n < m.Grid.NumNodes(); n++ {
		c := m.Grid.NodeCoord(n)
		want := lin(c)
		for comp := 0; comp < 3; comp++ {
			if math.Abs(u[3*n+comp]-want[comp]) > 1e-9 {
				t.Fatalf("patch test failed at node %d comp %d: %g vs %g", n, comp, u[3*n+comp], want[comp])
			}
		}
	}
	// Strain must be constant and match the symmetric gradient.
	eps := m.StrainAt(u, m.Grid.NumElems()/2, 0.2, -0.4, 0.6)
	want := [6]float64{1e-3, 1e-3, 3e-3, 0, -1e-3 + 1e-3, 2e-3 - 2e-3}
	for c := 0; c < 6; c++ {
		if math.Abs(eps[c]-want[c]) > 1e-12 {
			t.Errorf("strain[%d] = %g, want %g", c, eps[c], want[c])
		}
	}
}

func TestUniformThermalExpansionStressFree(t *testing.T) {
	// Prescribing the exact free-expansion field u = αΔT(r−r₀) on the
	// boundary of a homogeneous block must give (numerically) zero stress.
	mat := material.Silicon
	m := homogeneousModel(t, 3, 3, 4, mat)
	deltaT := -250.0
	a := mat.CTE * deltaT
	fn := func(p mesh.Vec3) [3]float64 {
		return [3]float64{a * p.X, a * p.Y, a * p.Z}
	}
	u := solveDirichlet(t, m, deltaT, fn)
	scale := mat.ThermalStressCoeff() * math.Abs(deltaT)
	for e := 0; e < m.Grid.NumElems(); e++ {
		s := m.StressAt(u, deltaT, e, 0, 0, 0)
		for c := 0; c < 6; c++ {
			if math.Abs(s[c]) > 1e-8*scale {
				t.Fatalf("element %d stress[%d] = %g, want ~0 (scale %g)", e, c, s[c], scale)
			}
		}
	}
}

func TestZeroBoundaryHydrostaticStress(t *testing.T) {
	// u = 0 on the boundary of a homogeneous block under ΔT: the exact
	// solution is u ≡ 0 with hydrostatic stress −α(3λ+2µ)ΔT on the
	// diagonal.
	mat := material.Copper
	m := homogeneousModel(t, 3, 3, 3, mat)
	deltaT := 100.0
	u := solveDirichlet(t, m, deltaT, func(mesh.Vec3) [3]float64 { return [3]float64{} })
	for _, v := range u {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("interior displacement %g, want 0", v)
		}
	}
	want := -mat.ThermalStressCoeff() * deltaT
	s := m.StressAt(u, deltaT, 0, 0.5, -0.5, 0)
	for c := 0; c < 3; c++ {
		if math.Abs(s[c]-want)/math.Abs(want) > 1e-12 {
			t.Errorf("normal stress %g, want %g", s[c], want)
		}
	}
	for c := 3; c < 6; c++ {
		if math.Abs(s[c]) > 1e-10*math.Abs(want) {
			t.Errorf("shear stress %g, want ~0", s[c])
		}
	}
}

func TestVonMises(t *testing.T) {
	// Hydrostatic stress has zero von Mises.
	if vm := VonMises([6]float64{5, 5, 5, 0, 0, 0}); math.Abs(vm) > 1e-12 {
		t.Errorf("hydrostatic vM = %g", vm)
	}
	// Uniaxial stress: vM = |σ|.
	if vm := VonMises([6]float64{7, 0, 0, 0, 0, 0}); math.Abs(vm-7) > 1e-12 {
		t.Errorf("uniaxial vM = %g", vm)
	}
	// Pure shear: vM = √3·|τ|.
	if vm := VonMises([6]float64{0, 0, 0, 2, 0, 0}); math.Abs(vm-2*math.Sqrt(3)) > 1e-12 {
		t.Errorf("shear vM = %g", vm)
	}
}

func TestVonMisesInvariantUnderHydrostaticShift(t *testing.T) {
	bound := func(x float64) float64 { return math.Mod(x, 1e6) }
	f := func(a, b, c, d, e, g, shift float64) bool {
		a, b, c, d, e, g, shift = bound(a), bound(b), bound(c), bound(d), bound(e), bound(g), bound(shift)
		s1 := [6]float64{a, b, c, d, e, g}
		s2 := [6]float64{a + shift, b + shift, c + shift, d, e, g}
		v1, v2 := VonMises(s1), VonMises(s2)
		return math.Abs(v1-v2) <= 1e-7*(1+v1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDisplacementAtPointInterpolates(t *testing.T) {
	m := homogeneousModel(t, 2, 2, 2, material.Silicon)
	// A linear displacement field is interpolated exactly anywhere.
	lin := func(p mesh.Vec3) [3]float64 {
		return [3]float64{0.5 * p.X, -0.25 * p.Y, p.Z}
	}
	u := make([]float64, m.NumDoFs())
	for n := 0; n < m.Grid.NumNodes(); n++ {
		d := lin(m.Grid.NodeCoord(n))
		u[3*n], u[3*n+1], u[3*n+2] = d[0], d[1], d[2]
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		p := mesh.Vec3{X: rng.Float64() * 2, Y: rng.Float64() * 3, Z: rng.Float64()}
		got := m.DisplacementAtPoint(u, p)
		want := lin(p)
		for c := 0; c < 3; c++ {
			if math.Abs(got[c]-want[c]) > 1e-12 {
				t.Fatalf("interpolation at %v: %v vs %v", p, got, want)
			}
		}
	}
}

func TestReduceRoundTrip(t *testing.T) {
	m := homogeneousModel(t, 2, 2, 2, material.Silicon)
	asm, err := m.Assemble(1)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumDoFs()
	isBC := make([]bool, n)
	for i := 0; i < n; i += 2 {
		isBC[i] = true
	}
	red, err := Reduce(asm.K, asm.F, isBC)
	if err != nil {
		t.Fatal(err)
	}
	if red.NFree()+len(red.BCIdx) != n {
		t.Fatal("partition sizes do not sum")
	}
	xf := make([]float64, red.NFree())
	for i := range xf {
		xf[i] = float64(i + 1)
	}
	ubc := make([]float64, len(red.BCIdx))
	for i := range ubc {
		ubc[i] = -float64(i + 1)
	}
	full := red.Expand(xf, ubc)
	for fi, idx := range red.FreeIdx {
		if full[idx] != xf[fi] {
			t.Fatal("free expansion mismatch")
		}
	}
	for bi, idx := range red.BCIdx {
		if full[idx] != ubc[bi] {
			t.Fatal("bc expansion mismatch")
		}
	}
}

func TestReduceErrors(t *testing.T) {
	m := homogeneousModel(t, 2, 2, 2, material.Silicon)
	asm, _ := m.Assemble(1)
	all := make([]bool, m.NumDoFs())
	for i := range all {
		all[i] = true
	}
	if _, err := Reduce(asm.K, asm.F, all); err == nil {
		t.Error("expected error when all DoFs constrained")
	}
	if _, err := Reduce(asm.K, asm.F, make([]bool, 3)); err == nil {
		t.Error("expected error on mask size mismatch")
	}
}

func TestVoidElementsExcluded(t *testing.T) {
	g, err := mesh.NewGrid(mesh.UniformAxis(0, 2, 2), mesh.UniformAxis(0, 1, 1), mesh.UniformAxis(0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.MatID[1] = mesh.VoidMaterial
	m := &Model{Grid: g, Mats: []material.Material{material.Silicon}}
	asm, err := m.Assemble(1)
	if err != nil {
		t.Fatal(err)
	}
	// Inactive node rows are identity.
	for n, act := range asm.ActiveNode {
		if act {
			continue
		}
		for c := 0; c < 3; c++ {
			r := 3*n + c
			if asm.K.RowPtr[r+1]-asm.K.RowPtr[r] != 1 || asm.K.At(r, r) != 1 {
				t.Fatalf("inactive row %d is not identity", r)
			}
			if asm.F[r] != 0 {
				t.Fatalf("inactive row %d has load", r)
			}
		}
	}
}

func TestMaterialIDOutOfRange(t *testing.T) {
	g, _ := mesh.NewGrid(mesh.UniformAxis(0, 1, 1), mesh.UniformAxis(0, 1, 1), mesh.UniformAxis(0, 1, 1))
	g.MatID[0] = 7
	m := &Model{Grid: g, Mats: []material.Material{material.Silicon}}
	if _, err := m.Assemble(1); err == nil {
		t.Error("expected error for out-of-range material id")
	}
}

// symmetric reports whether k equals its transpose to within
// tol·max|k| on every stored entry.
func symmetric(k *sparse.CSR, tol float64) bool {
	if k.NRows != k.NCols {
		return false
	}
	var top float64
	for _, v := range k.Vals {
		top = math.Max(top, math.Abs(v))
	}
	for r := 0; r < k.NRows; r++ {
		for p := k.RowPtr[r]; p < k.RowPtr[r+1]; p++ {
			if math.Abs(k.Vals[p]-k.At(int(k.ColIdx[p]), r)) > tol*top {
				return false
			}
		}
	}
	return true
}
