package rom

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lagrange"
	"repro/internal/linalg"
	"repro/internal/mesh"
)

// testSpec returns a cheap ROM spec for unit tests.
func testSpec(nodes int, withVia bool) Spec {
	s := PaperSpec(15, mesh.CoarseResolution())
	s.Nodes = [3]int{nodes, nodes, nodes}
	s.WithVia = withVia
	return s
}

func TestBuildBasicInvariants(t *testing.T) {
	r, err := Build(testSpec(3, true), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 78 { // (3³−1)·3 = 78 per Eq. 16
		t.Fatalf("N = %d, want 78", r.N)
	}
	if len(r.Basis) != r.N || len(r.Belem) != r.N {
		t.Fatal("basis/load sizes wrong")
	}
	// Element stiffness must be symmetric positive semidefinite (check
	// symmetry and nonnegative diagonal; PSD validated via Cholesky of
	// A + εI in the global stage tests).
	for i := 0; i < r.N; i++ {
		if r.Aelem.At(i, i) < 0 {
			t.Errorf("negative diagonal at %d: %g", i, r.Aelem.At(i, i))
		}
		for j := 0; j < r.N; j++ {
			d := math.Abs(r.Aelem.At(i, j) - r.Aelem.At(j, i))
			if d > 1e-9*(1+math.Abs(r.Aelem.At(i, j))) {
				t.Fatalf("Aelem not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if r.Stats.LocalSolves != r.N+1 {
		t.Errorf("local solves %d, want %d", r.Stats.LocalSolves, r.N+1)
	}
}

func TestBasisBoundaryValuesMatchLagrange(t *testing.T) {
	// On the fine boundary, basis f_i must equal the Lagrange interpolation
	// function of its surface node (Eq. 10), and f_T must vanish.
	r, err := Build(testSpec(3, true), 4)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grid
	for i := 0; i < r.N; i += 7 { // sample a few basis functions
		surfNode, comp := i/3, i%3
		for n := 0; n < g.NumNodes(); n++ {
			if !g.OnBoundary(n) {
				continue
			}
			c := g.NodeCoord(n)
			want := r.Surf.Eval(surfNode, c.X, c.Y, c.Z)
			for cc := 0; cc < 3; cc++ {
				exp := 0.0
				if cc == comp {
					exp = want
				}
				if math.Abs(r.Basis[i][3*n+cc]-exp) > 1e-9 {
					t.Fatalf("basis %d at boundary node %d comp %d: %g, want %g",
						i, n, cc, r.Basis[i][3*n+cc], exp)
				}
			}
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		if !g.OnBoundary(n) {
			continue
		}
		for cc := 0; cc < 3; cc++ {
			if r.BasisT[3*n+cc] != 0 {
				t.Fatalf("thermal basis nonzero on boundary node %d", n)
			}
		}
	}
}

func TestRigidTranslationNullSpace(t *testing.T) {
	// Setting all surface nodes to a rigid x-translation must reproduce the
	// translation everywhere (Lagrange interpolation of a constant is
	// exact) and produce zero element energy: qᵀ·A_elem·q ≈ 0.
	r, err := Build(testSpec(3, true), 4)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, r.N)
	for s := 0; s < r.Surf.Count(); s++ {
		q[3*s] = 1 // unit x-translation
	}
	u := r.Reconstruct(q, 0)
	for n := 0; n < r.Grid.NumNodes(); n++ {
		if math.Abs(u[3*n]-1) > 1e-8 || math.Abs(u[3*n+1]) > 1e-8 || math.Abs(u[3*n+2]) > 1e-8 {
			t.Fatalf("rigid translation not reproduced at node %d: (%g,%g,%g)",
				n, u[3*n], u[3*n+1], u[3*n+2])
		}
	}
	av := make([]float64, r.N)
	r.Aelem.MulVec(av, q)
	energy := linalg.Dot(q, av)
	scale := r.Aelem.MaxAbs()
	if math.Abs(energy) > 1e-8*scale {
		t.Errorf("translation energy %g (scale %g)", energy, scale)
	}
}

func TestElementLoadTranslationConsistency(t *testing.T) {
	// bᵀ·q for a rigid translation equals the net thermal force on the
	// block in that direction, which must vanish (self-equilibrated load).
	r, err := Build(testSpec(3, true), 4)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		q := make([]float64, r.N)
		for s := 0; s < r.Surf.Count(); s++ {
			q[3*s+c] = 1
		}
		var dot float64
		for i := range q {
			dot += q[i] * r.Belem[i]
		}
		scale := linalg.NormInf(r.Belem)
		if math.Abs(dot) > 1e-7*scale*float64(r.N) {
			t.Errorf("net thermal force in direction %d: %g (scale %g)", c, dot, scale)
		}
	}
}

func TestDummyBlockBuild(t *testing.T) {
	r, err := Build(testSpec(2, false), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 24 {
		t.Fatalf("N = %d, want 24", r.N)
	}
	// Homogeneous silicon: thermal basis with zero boundary and uniform
	// material gives nonzero interior response; just check finiteness and
	// that reconstruction works.
	u := r.Reconstruct(make([]float64, r.N), -250)
	for _, v := range u {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite reconstruction")
		}
	}
}

func TestSpecValidation(t *testing.T) {
	s := testSpec(3, true)
	s.Nodes = [3]int{1, 3, 3}
	if _, err := Build(s, 1); err == nil {
		t.Error("expected error for 1 interpolation node")
	}
	s = testSpec(3, true)
	s.Geom.Diameter = 20 // exceeds pitch
	if _, err := Build(s, 1); err == nil {
		t.Error("expected error for bad geometry")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r, err := Build(testSpec(2, true), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r2.N != r.N {
		t.Fatalf("N mismatch: %d vs %d", r2.N, r.N)
	}
	for i := range r.Aelem.Data {
		if r.Aelem.Data[i] != r2.Aelem.Data[i] {
			t.Fatal("Aelem mismatch after round trip")
		}
	}
	for i := range r.Belem {
		if r.Belem[i] != r2.Belem[i] {
			t.Fatal("Belem mismatch after round trip")
		}
	}
	// Reconstruction must agree.
	q := make([]float64, r.N)
	q[0] = 0.01
	u1 := r.Reconstruct(q, -100)
	u2 := r2.Reconstruct(q, -100)
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatal("reconstruction mismatch after round trip")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a rom"))); err == nil {
		t.Error("expected decode error")
	}
}

func TestSampleVMShape(t *testing.T) {
	r, err := Build(testSpec(2, true), 4)
	if err != nil {
		t.Fatal(err)
	}
	u := r.Reconstruct(make([]float64, r.N), -250)
	vm := r.SampleVM(u, -250, r.Spec.Geom.Height/2, 8)
	if len(vm) != 64 {
		t.Fatalf("sample count %d", len(vm))
	}
	for _, v := range vm {
		if v < 0 || math.IsNaN(v) {
			t.Fatal("invalid von Mises sample")
		}
	}
	// The stress near the via must exceed the far-field stress: CTE
	// mismatch concentrates stress at the TSV.
	center := vm[4*8+4]
	corner := vm[0]
	if center <= corner {
		t.Errorf("expected stress concentration at via: center %g, corner %g", center, corner)
	}
}

// TestBuildArbitraryNodeCounts is a property-style sweep: for every node
// configuration in a small grid, the ROM must build, satisfy Eq. 16, and
// produce a symmetric element stiffness with nonnegative diagonal.
func TestBuildArbitraryNodeCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("node-count sweep is slow")
	}
	for _, nodes := range [][3]int{{2, 2, 2}, {2, 3, 4}, {4, 2, 3}, {3, 3, 2}} {
		s := PaperSpec(15, mesh.CoarseResolution())
		s.Nodes = nodes
		r, err := Build(s, 8)
		if err != nil {
			t.Fatalf("%v: %v", nodes, err)
		}
		want := lagrange.DoFCount(nodes[0], nodes[1], nodes[2])
		if r.N != want {
			t.Errorf("%v: N = %d, want %d", nodes, r.N, want)
		}
		for i := 0; i < r.N; i++ {
			if r.Aelem.At(i, i) < 0 {
				t.Fatalf("%v: negative diagonal", nodes)
			}
			for j := i + 1; j < r.N; j++ {
				if d := math.Abs(r.Aelem.At(i, j) - r.Aelem.At(j, i)); d > 1e-8*(1+math.Abs(r.Aelem.At(i, j))) {
					t.Fatalf("%v: asymmetry at (%d,%d)", nodes, i, j)
				}
			}
		}
	}
}

// TestMemoryBytesCountsHeldParts checks that MemoryBytes is the sum of the
// arrays the model holds — basis, thermal basis, A_elem and b_elem, and no
// second copy of the cut-plane layer — after Build and after Load, which
// re-derives the layer's DoF range and recounts rather than trusting the
// saved figure.
func TestMemoryBytesCountsHeldParts(t *testing.T) {
	r, err := Build(testSpec(3, true), 4)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, r *ROM) {
		t.Helper()
		if lo, hi := r.Model.LayerDoFs(r.Spec.Geom.Height / 2); r.slabLo != lo || r.slabHi != hi {
			t.Fatalf("%s: cut-plane layer [%d, %d), want [%d, %d)", name, r.slabLo, r.slabHi, lo, hi)
		}
		want := int64(len(r.BasisT)+len(r.Aelem.Data)+len(r.Belem)) * 8
		for _, f := range r.Basis {
			want += int64(len(f)) * 8
		}
		if r.Stats.MemoryBytes != want {
			t.Errorf("%s: MemoryBytes = %d, want %d", name, r.Stats.MemoryBytes, want)
		}
	}
	check("built", r)
	r.Stats.MemoryBytes = 1
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("loaded", loaded)
}

// TestReconstructPlaneMatchesReconstruct checks the batched layer
// reconstruction bit for bit against Reconstruct, for trilinear and
// quadratic ROMs, batches that are and are not multiples of PlaneBatch,
// and DoF vectors that are dense, share their zeros, or have zeros of
// their own; DoFs outside the layer must be left alone.
func TestReconstructPlaneMatchesReconstruct(t *testing.T) {
	tri, err := Build(testSpec(3, true), 4)
	if err != nil {
		t.Fatal(err)
	}
	qs := testSpec(2, true)
	qs.Quadratic = true
	quad, err := Build(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	patterns := map[string]func(b, i int) bool{ // reports whether q[b][i] is zero
		"dense":  func(int, int) bool { return false },
		"shared": func(_, i int) bool { return i%3 == 1 },
		"mixed":  func(b, i int) bool { return (i+b)%4 == 0 },
	}
	for name, r := range map[string]*ROM{"trilinear": tri, "quadratic": quad} {
		for pname, zero := range patterns {
			for _, n := range []int{1, 3, 4, 5, 9} {
				u := make([][]float64, n)
				q := make([][]float64, n)
				dt := make([]float64, n)
				for b := range q {
					u[b] = make([]float64, len(r.BasisT))
					for d := range u[b] {
						u[b][d] = math.NaN()
					}
					q[b] = make([]float64, r.N)
					for i := range q[b] {
						if !zero(b, i) {
							q[b][i] = rng.NormFloat64() * 1e-3
						}
					}
					dt[b] = -250 + 10*float64(b)
				}
				r.ReconstructPlane(u, q, dt)
				for b := range q {
					want := r.Reconstruct(q[b], dt[b])
					for d, v := range u[b] {
						inLayer := d >= r.slabLo && d < r.slabHi
						if inLayer && math.Float64bits(v) != math.Float64bits(want[d]) {
							t.Fatalf("%s/%s/n=%d: block %d DoF %d = %v, want %v", name, pname, n, b, d, v, want[d])
						}
						if !inLayer && !math.IsNaN(v) {
							t.Fatalf("%s/%s/n=%d: block %d DoF %d outside the layer was written", name, pname, n, b, d)
						}
					}
				}
			}
		}
	}
}

// TestReconstructNodesMatchesReconstruct checks the per-element
// reconstruction behind StressAt and DisplacementAt bit for bit against
// Reconstruct at every element's nodes. The DoF vector has zeros and only
// negative nonzeros, and ΔT < 0, so a boundary DoF Reconstruct leaves at
// −0 turns +0 if a skipped zero term is added.
func TestReconstructNodesMatchesReconstruct(t *testing.T) {
	r, err := Build(testSpec(3, true), 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	q := make([]float64, r.N)
	for i := range q {
		if i%3 != 0 {
			q[i] = -rng.Float64() * 1e-3
		}
	}
	want := r.Reconstruct(q, -250)
	for e := 0; e < r.Grid.NumElems(); e++ {
		nodes := r.Grid.ElemNodes(e)
		var ue [24]float64
		r.reconstructNodes(ue[:], nodes[:], q, -250)
		for a, n := range nodes {
			for c := 0; c < 3; c++ {
				if got, w := ue[3*a+c], want[3*int(n)+c]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("element %d node %d component %d: %v, want %v", e, n, c, got, w)
				}
			}
		}
	}
}
