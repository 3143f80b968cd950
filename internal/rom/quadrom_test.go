package rom

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mesh"
)

func TestQuadraticROMBuild(t *testing.T) {
	spec := testSpec(3, true)
	spec.Quadratic = true
	r, err := Build(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Quad == nil {
		t.Fatal("quadratic ROM lacks quadratic model")
	}
	if r.N != 78 {
		t.Fatalf("element DoFs %d, want 78 (Eq. 16 is discretization-independent)", r.N)
	}
	if len(r.BasisT) != 3*r.Quad.NumNodes() {
		t.Fatalf("basis length %d, want %d", len(r.BasisT), 3*r.Quad.NumNodes())
	}
	// Rigid x-translation must be reproduced on the quadratic node set too.
	q := make([]float64, r.N)
	for s := 0; s < r.Surf.Count(); s++ {
		q[3*s] = 1
	}
	u := r.Reconstruct(q, 0)
	for id := 0; id < r.Quad.NumNodes(); id++ {
		if math.Abs(u[3*id]-1) > 1e-8 || math.Abs(u[3*id+1]) > 1e-8 {
			t.Fatalf("rigid translation not reproduced at quad node %d", id)
		}
	}
}

func TestQuadraticROMSaveLoad(t *testing.T) {
	spec := testSpec(2, true)
	spec.Quadratic = true
	r, err := Build(spec, 8)
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
	if r2.Quad == nil {
		t.Fatal("quadratic flag lost in round trip")
	}
	q := make([]float64, r.N)
	q[1] = 0.01
	u1 := r.Reconstruct(q, -50)
	u2 := r2.Reconstruct(q, -50)
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatal("quadratic reconstruction differs after round trip")
		}
	}
	// Stress recovery routes through the quadratic model.
	s1 := r.StressAtPoint(u1, -50, mesh.Vec3{X: 7.5, Y: 7.5, Z: 25})
	s2 := r2.StressAtPoint(u2, -50, mesh.Vec3{X: 7.5, Y: 7.5, Z: 25})
	if s1 != s2 {
		t.Fatal("stress recovery differs after round trip")
	}
}

// TestQuadraticROMBuildDeterministic: the quadratic assembly gives every
// element's rows fixed segments and sums the load in element order, so
// three builds at each of 1, 2 and 4 workers agree bit for bit.
func TestQuadraticROMBuildDeterministic(t *testing.T) {
	spec := testSpec(2, true)
	spec.Quadratic = true
	flat := func(r *ROM) []float64 {
		v := append(append(append([]float64(nil), r.Aelem.Data...), r.Belem...), r.BasisT...)
		for _, f := range r.Basis {
			v = append(v, f...)
		}
		return v
	}
	var want []float64
	for _, workers := range []int{1, 2, 4} {
		for run := 0; run < 3; run++ {
			r, err := Build(spec, workers)
			if err != nil {
				t.Fatal(err)
			}
			got := flat(r)
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d run %d: %d values, want %d", workers, run, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("workers=%d run %d: value %d = %x, first build %x", workers, run, i, got[i], want[i])
				}
			}
		}
	}
}
