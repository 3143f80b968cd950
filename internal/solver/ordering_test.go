package solver

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// TestOrderingResolve pins the one ordering: every kind — auto, natural and
// the reserved values of the deleted orderings — resolves to natural at
// every size and GOMAXPROCS, and the retired multicolor value still spells
// its name, so a journaled result reports the ordering it ran under.
func TestOrderingResolve(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, k := range []OrderingKind{OrderingAuto, OrderingNatural, 2, 3} {
			for _, n := range []int{0, 2709, 4096, 9945, 1 << 20} {
				if got := ResolveOrdering(k, n); got != OrderingNatural {
					t.Errorf("GOMAXPROCS %d: ResolveOrdering(%v, n=%d) = %v, want natural", procs, k, n, got)
				}
			}
		}
	}
	if got := OrderingKind(3).String(); got != "multicolor" {
		t.Errorf("OrderingKind(3) spells %q, want multicolor", got)
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
