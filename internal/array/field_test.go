package array

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/mesh"
	"repro/internal/rom"
)

// referenceVMField is the field sampler the cut-plane path replaced: every
// block's full fine field from Reconstruct, then SampleVM's per-point
// recovery.
func referenceVMField(s *Solution, gs int) *field.Grid2D {
	out := field.New(s.Prob.Bx*gs, s.Prob.By*gs)
	zCut := s.Prob.ROM.Spec.Geom.Height / 2
	for by := 0; by < s.Prob.By; by++ {
		for bx := 0; bx < s.Prob.Bx; bx++ {
			r := s.blockROM(bx, by)
			dt := s.Prob.blockDeltaT(bx, by)
			vm := r.SampleVM(r.Reconstruct(s.BlockDoFs(bx, by), dt), dt, zCut, gs)
			for gy := 0; gy < gs; gy++ {
				dst := (by*gs+gy)*out.NX + bx*gs
				copy(out.V[dst:dst+gs], vm[gy*gs:(gy+1)*gs])
			}
		}
	}
	return out
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// roundTrip returns r after a Save/Load cycle.
func roundTrip(t *testing.T, r *rom.ROM) *rom.ROM {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := rom.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// linearBoundary is a prescribed displacement with no zero components
// inside the domain, so the prescribed lattices exercise dense q vectors.
func linearBoundary(p mesh.Vec3) [3]float64 {
	return [3]float64{1e-3*p.X + 2e-4*p.Z, -2e-3*p.Y + 1e-4, 5e-4*p.Z - 1e-4*p.X}
}

// TestVMFieldMatchesReference checks VMField bit for bit against the
// per-block full reconstruction on lattices whose same-ROM groups are and
// are not multiples of rom.PlaneBatch, under both BCs, over grid sizes and
// worker counts, for a quadratic ROM and for ROMs that went through
// Save/Load.
func TestVMFieldMatchesReference(t *testing.T) {
	tsv, dummy := servedROM(t, true), servedROM(t, false)
	spec := rom.PaperSpec(15, mesh.CoarseResolution())
	spec.Nodes = [3]int{2, 2, 2}
	spec.Quadratic = true
	quad, err := rom.Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ring := func(bx, by int) bool { return bx == 0 || by == 0 || bx == 4 || by == 4 }
	hot := func(bx, by int) float64 { return -250 + 17*float64(bx) - 9*float64(by) }
	cases := []struct {
		name      string
		r, d      *rom.ROM
		bx, by    int
		isDummy   func(bx, by int) bool
		deltaTFor func(bx, by int) float64
	}{
		{name: "5x5-ring", r: tsv, d: dummy, bx: 5, by: 5, isDummy: ring},
		{name: "1x1", r: tsv, bx: 1, by: 1},
		{name: "1x7", r: tsv, bx: 1, by: 7},
		{name: "6x6-hotspot", r: tsv, bx: 6, by: 6, deltaTFor: hot},
		{name: "3x2-quadratic", r: quad, bx: 3, by: 2},
		{name: "5x5-ring-loaded", r: roundTrip(t, tsv), d: roundTrip(t, dummy), bx: 5, by: 5, isDummy: ring},
	}
	for _, c := range cases {
		for _, bc := range []BCKind{ClampedTopBottom, PrescribedBoundary} {
			t.Run(fmt.Sprintf("%s/bc=%d", c.name, bc), func(t *testing.T) {
				sol, err := Solve(&Problem{
					ROM: c.r, DummyROM: c.d, IsDummy: c.isDummy,
					Bx: c.bx, By: c.by, DeltaT: -250, DeltaTFor: c.deltaTFor,
					BC: bc, BoundaryDisp: linearBoundary,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, gs := range []int{1, 7, 10, 40} {
					want := referenceVMField(sol, gs)
					for _, workers := range []int{1, 2, 4} {
						got := sol.VMField(gs, workers)
						if got.NX != want.NX || got.NY != want.NY {
							t.Fatalf("gs=%d: field is %d×%d, want %d×%d", gs, got.NX, got.NY, want.NX, want.NY)
						}
						sameBits(t, fmt.Sprintf("gs=%d workers=%d", gs, workers), got.V, want.V)
					}
				}
			})
		}
	}
}

// TestPointQueriesMatchFullReconstruct checks StressAt and DisplacementAt,
// which reconstruct only the containing element, bit for bit against the
// full reconstruction at seeded random points, block edges and corners,
// and points outside the lattice.
func TestPointQueriesMatchFullReconstruct(t *testing.T) {
	tsv, dummy := servedROM(t, true), servedROM(t, false)
	spec := rom.PaperSpec(15, mesh.CoarseResolution())
	spec.Nodes = [3]int{2, 2, 2}
	spec.Quadratic = true
	quad, err := rom.Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ring := func(bx, by int) bool { return bx == 0 || by == 0 || bx == 2 || by == 2 }
	for _, c := range []struct {
		name    string
		r, d    *rom.ROM
		isDummy func(bx, by int) bool
		bc      BCKind
	}{
		{"trilinear-clamped", tsv, dummy, ring, ClampedTopBottom},
		{"trilinear-prescribed", tsv, dummy, ring, PrescribedBoundary},
		{"quadratic-clamped", quad, nil, nil, ClampedTopBottom},
		{"quadratic-prescribed", quad, nil, nil, PrescribedBoundary},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 3
			sol, err := Solve(&Problem{
				ROM: c.r, DummyROM: c.d, IsDummy: c.isDummy,
				Bx: n, By: n, DeltaT: -250, BC: c.bc, BoundaryDisp: linearBoundary,
			})
			if err != nil {
				t.Fatal(err)
			}
			pitch, height := c.r.Spec.Geom.Pitch, c.r.Spec.Geom.Height
			rng := rand.New(rand.NewSource(11))
			var pts []mesh.Vec3
			for i := 0; i < 200; i++ {
				pts = append(pts, mesh.Vec3{X: rng.Float64() * n * pitch, Y: rng.Float64() * n * pitch, Z: rng.Float64() * height})
			}
			for _, x := range []float64{-3, 0, pitch, 2 * pitch, n * pitch, n*pitch + 4} {
				for _, z := range []float64{-1, 0, height / 2, height, height + 2} {
					pts = append(pts, mesh.Vec3{X: x, Y: pitch, Z: z}, mesh.Vec3{X: pitch / 3, Y: x, Z: z})
				}
			}
			for _, p := range pts {
				bx, by, local := sol.locate(p)
				r := sol.blockROM(bx, by)
				dt := sol.Prob.blockDeltaT(bx, by)
				u := r.Reconstruct(sol.BlockDoFs(bx, by), dt)
				wantS := r.StressAtPoint(u, dt, local)
				var wantU [3]float64
				if r.Quad != nil {
					wantU = r.Quad.DisplacementAtPoint(u, local)
				} else {
					wantU = r.Model.DisplacementAtPoint(u, local)
				}
				gotS, gotU := sol.StressAt(p), sol.DisplacementAt(p)
				sameBits(t, fmt.Sprintf("stress at %v", p), gotS[:], wantS[:])
				sameBits(t, fmt.Sprintf("displacement at %v", p), gotU[:], wantU[:])
			}
		})
	}
}
