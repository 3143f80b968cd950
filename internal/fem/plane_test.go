package fem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/material"
	"repro/internal/mesh"
)

// tsvBlockModel returns the coarse TSV unit-cell mesh with its materials.
func tsvBlockModel(t *testing.T) *Model {
	t.Helper()
	g, err := mesh.NewBlock(mesh.PaperGeometry(15), mesh.CoarseResolution(), mesh.KindTSV)
	if err != nil {
		t.Fatal(err)
	}
	return &Model{Grid: g, Mats: TSVMats(material.DefaultTSVSet())}
}

// poisonedField returns a random field whose DoFs outside [lo, hi) are NaN,
// so any read outside the layer shows up in the result.
func poisonedField(rng *rand.Rand, n, lo, hi int) []float64 {
	u := make([]float64, n)
	for d := range u {
		u[d] = math.NaN()
		if d >= lo && d < hi {
			u[d] = rng.NormFloat64() * 1e-3
		}
	}
	return u
}

// TestLayerDoFsCoverLayerElements checks that the nodes of every element in
// the layer Locate picks lie inside LayerDoFs, and that the range holds
// exactly the layer's nodes, for both discretizations.
func TestLayerDoFsCoverLayerElements(t *testing.T) {
	m := tsvBlockModel(t)
	q := NewQuadModel(m.Grid, m.Mats)
	g := m.Grid
	for _, z := range []float64{-1, 0, 12.5, 25, 37.5, 50, 60} {
		e, _, _, _ := g.Locate(mesh.Vec3{Z: z})
		_, _, k := g.ElemIJK(e)
		lo, hi := m.LayerDoFs(z)
		if want := 3 * 2 * len(g.Xs) * len(g.Ys); hi-lo != want {
			t.Errorf("z=%g: trilinear layer holds %d DoFs, want %d", z, hi-lo, want)
		}
		qlo, qhi := q.LayerDoFs(z)
		nq := 0
		for _, nd := range q.Nodes {
			if nd[2] >= 2*k && nd[2] <= 2*k+2 {
				nq++
			}
		}
		if qhi-qlo != 3*nq {
			t.Errorf("z=%g: quadratic layer holds %d DoFs, want %d", z, qhi-qlo, 3*nq)
		}
		for j := 0; j < g.NEY(); j++ {
			for i := 0; i < g.NEX(); i++ {
				e := g.ElemIndex(i, j, k)
				for _, n := range g.ElemNodes(e) {
					if d := 3 * int(n); d < lo || d+3 > hi {
						t.Fatalf("z=%g: trilinear node %d outside [%d, %d)", z, n, lo, hi)
					}
				}
				for _, n := range q.ElemNodes(e) {
					if d := 3 * int(n); d < qlo || d+3 > qhi {
						t.Fatalf("z=%g: quadratic node %d outside [%d, %d)", z, n, qlo, qhi)
					}
				}
			}
		}
	}
}

// TestPlaneGridMatchesStressAtPoint checks the hoisted sampler against the
// per-point recovery bit for bit, on lattices whose points fall inside
// elements, on grid lines and outside the block, reading only the layer.
func TestPlaneGridMatchesStressAtPoint(t *testing.T) {
	m := tsvBlockModel(t)
	rng := rand.New(rand.NewSource(5))
	lattices := map[string][]float64{
		"centers": {0.375, 3.1, 7.5, 11.9, 14.625},
		"lines":   append([]float64(nil), m.Grid.Xs...),
		"outside": {-2, 0, 15, 17.5},
	}
	for name, xs := range lattices {
		for _, zCut := range []float64{25, 0, 50, 3.3} {
			lo, hi := m.LayerDoFs(zCut)
			u := poisonedField(rng, m.NumDoFs(), lo, hi)
			ys := append([]float64{7.4}, xs...)
			pg := m.NewPlaneGrid(xs, ys, zCut)
			got := make([]float64, len(xs)*len(ys))
			pg.VonMises(got, u, -250)
			for j, y := range ys {
				for i, x := range xs {
					want := VonMises(m.StressAtPoint(u, -250, mesh.Vec3{X: x, Y: y, Z: zCut}))
					if g := got[j*len(xs)+i]; math.Float64bits(g) != math.Float64bits(want) || math.IsNaN(g) {
						t.Fatalf("%s z=%g (%g, %g): plane %v, per point %v", name, zCut, x, y, g, want)
					}
				}
			}
		}
	}
}
