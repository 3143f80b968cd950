package solver

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// TestOrderingResolve pins the rule on the solver's side: IC0 factors in
// the matrix's own row order, so every solve reports natural whatever kind
// it runs (Auto included) and whatever GOMAXPROCS; the two-ended witness is
// the assembly's (array.TestAssemblyOrderingFollowsNumbering). The retired
// multicolor value still spells its name, so a journaled result reports
// the ordering it ran under.
func TestOrderingResolve(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	a := tiled(latticeLike(8, 8, 6))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, kind := range []PrecondKind{PrecondIC0, PrecondAuto, PrecondBlockJacobi3, PrecondNone} {
			_, st, err := PCG(a, b, nil, Options{Tol: 1e-8, Precond: kind, Ordering: OrderingTwoEnded})
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, %v: %v", procs, kind, err)
			}
			if st.Ordering != OrderingNatural {
				t.Errorf("GOMAXPROCS %d: %v recorded ordering %v, want natural", procs, kind, st.Ordering)
			}
		}
	}
	if got := OrderingKind(3).String(); got != "multicolor" {
		t.Errorf("OrderingKind(3) spells %q, want multicolor", got)
	}
	if got := OrderingTwoEnded.String(); got != "two-ended" {
		t.Errorf("OrderingTwoEnded spells %q, want two-ended", got)
	}
}

// TestPCGOrderingsAgree: every requested ordering factors the same natural
// IC0, so PCG under auto, natural and the reserved values gives the same
// bits, records natural in Stats, and stays bitwise identical across worker
// counts (the parallel triangular solves are deterministic).
func TestPCGOrderingsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	systems := map[string]*sparse.BCSR{
		"lattice":    tiled(latticeLike(8, 8, 6)),
		"elasticity": tiled(elasticity3(7, 6, 5)),
		"random":     tiled(randSPDSparse(rng, 1200, 6)),
	}
	for name, a := range systems {
		b := make([]float64, a.NRows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		var ref []float64
		for _, ord := range []OrderingKind{OrderingNatural, OrderingAuto, 2, 3} {
			x, st, err := PCG(a, b, nil, Options{Tol: 1e-10, Precond: PrecondIC0, Ordering: ord, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, ord, err)
			}
			if st.Ordering != OrderingNatural {
				t.Errorf("%s/%v: stats recorded ordering %v, want natural", name, ord, st.Ordering)
			}
			if ref == nil {
				ref = x
			}
			for i := range ref {
				if math.Float64bits(x[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%s/%v: x[%d] = %x, natural %x (not bitwise equal)", name, ord, i, x[i], ref[i])
				}
			}
		}
		// Worker counts must not change a single bit.
		for _, w := range []int{2, 4, 8} {
			m, err := NewPreconditioner(PrecondIC0, PrecisionAuto, a)
			if err != nil {
				t.Fatal(err)
			}
			ws := NewWorkspace(w)
			xw, _, err := PCG(a, b, nil, Options{Tol: 1e-10, Precond: PrecondIC0, M: m, Work: ws, Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			for i := range ref {
				if ref[i] != xw[i] {
					t.Fatalf("%s workers=%d: x[%d] = %x, serial %x (not bitwise equal)", name, w, i, xw[i], ref[i])
				}
			}
			ws.Close()
		}
	}
}
