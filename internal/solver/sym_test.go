package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// checkSymLayout checks a matrix stored as its upper block triangle against
// the same matrix with both triangles stored: the product agrees to 1e-14
// of ‖A·x‖∞ and is bitwise identical through MulVec and through the
// workspace binding on every pool size; the IC0 factors (float64 and
// float32) are bitwise identical.
func checkSymLayout(t *testing.T, name string, a *sparse.BCSR) {
	t.Helper()
	if !a.Sym {
		t.Fatalf("%s: not stored as its upper triangle", name)
	}
	full := a.Full()
	x := randVec(rand.New(rand.NewSource(5)), a.NCols)
	ref := make([]float64, a.NRows)
	full.MulVec(ref, x)
	want := make([]float64, a.NRows)
	a.MulVec(want, x)
	if d, scale := maxAbsDiff(want, ref), maxAbsVec(ref); d > 1e-14*scale {
		t.Errorf("%s: upper-triangle product differs from the full one by %.3g of ‖A·x‖∞", name, d/scale)
	}
	for _, w := range []int{1, 2, 4, 8} {
		ws := NewWorkspace(w)
		ws.reset()
		ws.prepMatVec(a, w)
		got := make([]float64, a.NRows)
		ws.matvec(a, got, x)
		ws.Close()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %d-worker product differs from MulVec at %d", name, w, i)
			}
		}
	}
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		p, err := newIC0(a, prec)
		if err != nil {
			t.Fatal(err)
		}
		q, err := newIC0(full, prec)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFactor(p.l, q.l) {
			t.Errorf("%s: %v IC0 factor from the upper triangle differs from the full matrix's", name, prec)
		}
	}
}

// TestSymLayoutOnTestSystems runs the layout contract on the synthetic SPD
// systems the solver tests use.
func TestSymLayoutOnTestSystems(t *testing.T) {
	checkSymLayout(t, "elasticity3", tiled(elasticity3(12, 12, 10)))
	checkSymLayout(t, "laplacian3D", tiled(laplacian3D(24, 24, 12)))
}
