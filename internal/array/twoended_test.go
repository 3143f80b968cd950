package array

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/solver"
	"repro/internal/sparse"
)

// servedFactor returns the assembly of a bx×by lattice of the served
// (5,5,5) coarse cell, clamped top and bottom, and the float32 IC0 factor
// PreconditionerPrec caches on it — the factor every served solve of the
// lattice applies.
func servedFactor(t testing.TB, bx, by int) (*Assembly, solver.Preconditioner) {
	t.Helper()
	asm, err := NewAssembly(&Problem{ROM: servedROM(t, true), Bx: bx, By: by, DeltaT: -250, BC: ClampedTopBottom}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	return asm, ap.M
}

// TestTwoPhaseApplyBitwise: on the served 6×6, 12×12 and 18×18 factors, an
// application through a Workspace of 1, 2 or 4 workers — the two-phase
// sweeps where the lattice is large enough to fan out — is bitwise equal
// to the serial Apply.
func TestTwoPhaseApplyBitwise(t *testing.T) {
	for _, size := range []int{6, 12, 18} {
		_, m := servedFactor(t, size, size)
		rng := rand.New(rand.NewSource(int64(size)))
		r := make([]float64, 3*m.(solver.TriFactor).Factor().NBRows())
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		want := make([]float64, len(r))
		m.Apply(want, r)
		for _, w := range []int{1, 2, 4} {
			ws := solver.NewWorkspace(w)
			got := make([]float64, len(r))
			for rep := 0; rep < 3; rep++ {
				ws.Apply(m, got, r)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						ws.Close()
						t.Fatalf("%d×%d, %d workers, apply %d: dst[%d] = %x, serial %x", size, size, w, rep, i, got[i], want[i])
					}
				}
			}
			ws.Close()
		}
	}
}

// TestTwoEndedSplit pins the served factors' schedules and their shape.
// The backward sweep runs the rows on the cut line inline, then B_far and A
// side by side, so no A row of Lᵀ may reference a B_far row. From 12×12 up
// the inline tail is the cut line alone, at most 5 % of the block rows
// (147 of 3 315 at 12×12), and both halves fan out.
func TestTwoEndedSplit(t *testing.T) {
	for _, c := range []struct {
		bx, by   int
		fwd, bwd [3]int32
	}{
		{2, 3, [3]int32{0, 54, 162}, [3]int32{27, 135, 189}},
		{4, 8, [3]int32{0, 384, 768}, [3]int32{51, 435, 819}},
		{8, 4, [3]int32{0, 384, 768}, [3]int32{51, 435, 819}},
		{5, 7, [3]int32{0, 351, 819}, [3]int32{63, 531, 882}},
		{6, 6, [3]int32{0, 414, 828}, [3]int32{75, 489, 903}},
		{12, 12, [3]int32{0, 1584, 3168}, [3]int32{147, 1731, 3315}},
		{16, 9, [3]int32{0, 1608, 3216}, [3]int32{111, 1719, 3327}},
		{18, 18, [3]int32{0, 3510, 7020}, [3]int32{219, 3729, 7239}},
	} {
		d := [2]int{c.bx, c.by}
		asm, m := servedFactor(t, d[0], d[1])
		name := fmt.Sprintf("%d×%d", d[0], d[1])
		l := m.(solver.TriFactor).Factor()
		nb := l.NBRows()
		t.Logf("%s: Fwd.Par %v, Bwd.Par %v", name, l.Fwd.Par, l.Bwd.Par)
		if l.Fwd.Par != c.fwd || l.Bwd.Par != c.bwd {
			t.Errorf("%s: Fwd.Par %v, Bwd.Par %v; want %v, %v", name, l.Fwd.Par, l.Bwd.Par, c.fwd, c.bwd)
		}
		// Lᵀ's position k holds block row nb−1−k.
		bwd := l.Bwd.Par
		for k := bwd[1]; k < bwd[2]; k++ {
			cols, _ := l.Row(nb-1-int(k), true)
			for _, r := range cols {
				if at := int32(nb-1) - r; at >= bwd[0] && at < bwd[1] {
					t.Fatalf("%s: A row %d of Lᵀ references B_far row %d", name, nb-1-int(k), r)
				}
			}
		}
		h0, h1 := halves(l.Fwd)
		tail := l.Fwd.Tail()
		t.Logf("%s: %d block rows, halves %d/%d, tail %d", name, nb, h0, h1, tail)
		if h0+h1+tail != nb || h0 == 0 || h1 == 0 {
			t.Errorf("%s: halves %d/%d and tail %d do not split %d rows two ways", name, h0, h1, tail, nb)
		}
		if d[0] < 12 && d[1] < 12 {
			continue
		}
		if 20*tail > nb {
			t.Errorf("%s: tail of %d rows exceeds 5 %% of %d", name, tail, nb)
		}
		// The tail is the cut line: the block line nearest the middle of
		// the longer side.
		line, cut := 0, (d[0]/2)*(asm.Lat.NxN-1)
		if d[1] > d[0] {
			line, cut = 1, (d[1]/2)*(asm.Lat.NyN-1)
		}
		for r := int(l.Fwd.Par[2]); r < nb; r++ {
			if at := asm.Lat.Nodes[asm.Red.FreeIdx[3*r]/3][line]; at != cut {
				t.Fatalf("%s: tail row %d lies at line coordinate %d, not on the cut %d", name, r, at, cut)
			}
		}
	}
}

// TestTwoEndedIterations: GMRES under the two-ended factor converges in at
// most 17 iterations on the served 12×12 unit load (19 under the natural
// factor) and in at most 16 on the IC0 new-design shapes 5×7, 6×6 and 7×5
// (17 under natural).
func TestTwoEndedIterations(t *testing.T) {
	for _, c := range []struct{ bx, by, max int }{{12, 12, 17}, {5, 7, 16}, {6, 6, 16}, {7, 5, 16}} {
		asm, _ := servedFactor(t, c.bx, c.by)
		sol, err := Solve(&Problem{ROM: servedROM(t, true), Bx: c.bx, By: c.by, DeltaT: 1, BC: ClampedTopBottom, Solver: GMRES, Assembly: asm})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Stats.Precond != solver.PrecondIC0 || sol.Ordering != solver.OrderingTwoEnded {
			t.Fatalf("%d×%d: solved under %v/%v, want ic0/two-ended", c.bx, c.by, sol.Stats.Precond, sol.Ordering)
		}
		t.Logf("%d×%d: %d iterations", c.bx, c.by, sol.Stats.Iterations)
		if sol.Stats.Iterations > c.max {
			t.Errorf("%d×%d: %d GMRES iterations, want ≤ %d", c.bx, c.by, sol.Stats.Iterations, c.max)
		}
	}
}

// halves returns the row counts of a sweep's two chunks.
func halves(s *sparse.LevelSchedule) (int, int) {
	return int(s.Par[1] - s.Par[0]), int(s.Par[2] - s.Par[1])
}
