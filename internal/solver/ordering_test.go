package solver

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// checkMulticolor asserts the two contracts of a multicolor ordering on the
// pattern of m: perm is a valid permutation, and no two adjacent vertices
// share a color class.
func checkMulticolor(t *testing.T, m *sparse.CSR, perm, colorPtr []int32) {
	t.Helper()
	n := m.NRows
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			t.Fatalf("perm is not a permutation at %d", p)
		}
		seen[p] = true
	}
	if len(colorPtr) < 1 || colorPtr[0] != 0 || colorPtr[len(colorPtr)-1] != int32(n) {
		t.Fatalf("colorPtr %v does not cover [0, %d]", colorPtr, n)
	}
	// classOf[new index] = color class, from the class bounds.
	classOf := make([]int32, n)
	for c := 0; c+1 < len(colorPtr); c++ {
		if colorPtr[c+1] <= colorPtr[c] {
			t.Fatalf("empty color class %d: bounds %v", c, colorPtr)
		}
		for i := colorPtr[c]; i < colorPtr[c+1]; i++ {
			classOf[i] = int32(c)
		}
	}
	for r := 0; r < n; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			c := m.ColIdx[p]
			if int(c) == r {
				continue
			}
			if classOf[perm[r]] == classOf[perm[c]] {
				t.Fatalf("adjacent vertices %d and %d share color %d", r, c, classOf[perm[r]])
			}
		}
	}
}

// csrRows adapts a scalar CSR pattern to Multicolor's rowsOf.
func csrRows(m *sparse.CSR) func(r int) []int32 {
	return func(r int) []int32 { return m.ColIdx[m.RowPtr[r]:m.RowPtr[r+1]] }
}

func TestMulticolorValidColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	systems := map[string]*sparse.CSR{
		"laplacian":  laplacian3D(8, 7, 6),
		"elasticity": elasticity3(6, 6, 5),
		"random":     randSPDSparse(rng, 900, 5),
		"diagonal":   diagonalCSR(40),
		"dense-row":  arrowCSR(64),
	}
	for name, m := range systems {
		perm, colorPtr := Multicolor(m.NRows, csrRows(m))
		checkMulticolor(t, m, perm, colorPtr)
		if name == "diagonal" && len(colorPtr) != 2 {
			t.Errorf("diagonal matrix needs 1 color, got %d", len(colorPtr)-1)
		}
	}
	// Degenerate sizes.
	if perm, cp := Multicolor(0, func(int) []int32 { return nil }); len(perm) != 0 || len(cp) != 1 {
		t.Errorf("n=0: perm %v colorPtr %v", perm, cp)
	}
	if perm, cp := Multicolor(1, func(int) []int32 { return nil }); len(perm) != 1 || len(cp) != 2 {
		t.Errorf("n=1: perm %v colorPtr %v", perm, cp)
	}
}

// TestMulticolorCollapsesLevels is the tentpole's shape contract: on a
// lattice-like system whose natural-order IC0 DAG is deep and narrow, the
// multicolor-ordered factor's schedule must collapse to one level per color
// — orders of magnitude fewer, each wide: one *block* level per node color.
func TestMulticolorCollapsesLevels(t *testing.T) {
	ac := latticeLike(12, 12, 9) // narrow natural DAG by construction
	a := tiled(ac)
	natural, err := newIC0(a, OrderingNatural, PrecisionAuto)
	if err != nil {
		t.Fatal(err)
	}
	colored, err := newIC0(a, OrderingMulticolor, PrecisionAuto)
	if err != nil {
		t.Fatal(err)
	}
	_, nodePtr := MulticolorNodes(a)
	nodeColors := len(nodePtr) - 1
	_, scalarPtr := Multicolor(ac.NRows, csrRows(ac))
	if nodeColors > len(scalarPtr)-1 {
		t.Errorf("node coloring uses %d colors, more than the %d scalar colors", nodeColors, len(scalarPtr)-1)
	}
	nLevels, nWidth := natural.Levels()
	cLevels, cWidth := colored.Levels()
	if cLevels != nodeColors {
		t.Errorf("multicolor blocked factor has %d levels, want one per node color (%d)", cLevels, nodeColors)
	}
	if cLevels >= nLevels/4 {
		t.Errorf("multicolor did not collapse the schedule: %d levels vs natural %d", cLevels, nLevels)
	}
	if cWidth <= nWidth {
		t.Errorf("multicolor max level width %d not wider than natural %d", cWidth, nWidth)
	}
}

// TestMulticolorNodesContiguous pins the block-aware coloring's structural
// contracts: a valid scalar permutation that keeps every node's 3 rows
// contiguous (triads survive for blocked storage), node-class bounds that
// cover the node range, and no two *coupled* nodes in one class.
func TestMulticolorNodesContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	systems := map[string]*sparse.CSR{
		"lattice":    latticeLike(7, 7, 6),
		"elasticity": elasticity3(6, 5, 4),
		"random":     randSPDSparse(rng, 900, 5),
		"diagonal":   diagonalCSR(42),
	}
	for name, m := range systems {
		perm, colorPtr := MulticolorNodes(tiled(m))
		n := m.NRows
		nb := n / 3
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || int(p) >= n || seen[p] {
				t.Fatalf("%s: perm is not a permutation at %d", name, p)
			}
			seen[p] = true
		}
		for v := 0; v < nb; v++ {
			base := perm[3*v]
			if base%3 != 0 || perm[3*v+1] != base+1 || perm[3*v+2] != base+2 {
				t.Fatalf("%s: node %d triad not contiguous: %v", name, v, perm[3*v:3*v+3])
			}
		}
		if colorPtr[0] != 0 || colorPtr[len(colorPtr)-1] != int32(nb) {
			t.Fatalf("%s: node colorPtr %v does not cover [0, %d]", name, colorPtr, nb)
		}
		classOf := make([]int32, nb)
		for c := 0; c+1 < len(colorPtr); c++ {
			if colorPtr[c+1] <= colorPtr[c] {
				t.Fatalf("%s: empty node color class %d", name, c)
			}
			for i := colorPtr[c]; i < colorPtr[c+1]; i++ {
				classOf[i] = int32(c)
			}
		}
		for r := 0; r < n; r++ {
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				vr, vc := r/3, int(m.ColIdx[p])/3
				if vr == vc {
					continue
				}
				if classOf[perm[3*vr]/3] == classOf[perm[3*vc]/3] {
					t.Fatalf("%s: coupled nodes %d and %d share a color", name, vr, vc)
				}
			}
		}
	}
}

// TestOrderingResolve pins the auto rule: concrete kinds resolve to
// themselves; auto picks multicolor exactly when the system reaches
// AutoMulticolorMinDoFs. The rule reads the size alone, so GOMAXPROCS —
// the default worker count — cannot move it.
func TestOrderingResolve(t *testing.T) {
	const big, small = AutoMulticolorMinDoFs, AutoMulticolorMinDoFs - 1
	for _, k := range []OrderingKind{OrderingNatural, OrderingMulticolor} {
		for _, n := range []int{0, small, big} {
			if got := ResolveOrdering(k, n); got != k {
				t.Errorf("concrete kind %v (n=%d) resolved to %v", k, n, got)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct {
			n    int
			want OrderingKind
		}{
			{0, OrderingNatural},
			{small, OrderingNatural},
			{big, OrderingMulticolor},
			{1 << 20, OrderingMulticolor},
		} {
			if got := ResolveOrdering(OrderingAuto, c.n); got != c.want {
				t.Errorf("GOMAXPROCS %d: ResolveOrdering(auto, n=%d) = %v, want %v", procs, c.n, got, c.want)
			}
		}
	}
}

// TestPCGOrderingsAgree: PCG under the natural and multicolor orderings
// must converge to the same solution
// (the preconditioner changes the path, never the fixed point), and each
// ordering must be bitwise identical across worker counts (the parallel
// triangular solves and the permute scatter/gather are deterministic).
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
		for _, ord := range []OrderingKind{OrderingNatural, OrderingMulticolor} {
			x1, st, err := PCG(a, b, nil, Options{Tol: 1e-10, Precond: PrecondIC0, Ordering: ord, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, ord, err)
			}
			if st.Ordering != ord {
				t.Errorf("%s/%v: stats recorded ordering %v", name, ord, st.Ordering)
			}
			// Worker counts must not change a single bit for a fixed ordering.
			for _, w := range []int{2, 4, 8} {
				m, err := NewPreconditioner(PrecondIC0, ord, PrecisionAuto, a)
				if err != nil {
					t.Fatal(err)
				}
				ws := NewWorkspace(w)
				xw, _, err := PCG(a, b, nil, Options{Tol: 1e-10, Precond: PrecondIC0, M: m, Work: ws, Workers: w})
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", name, ord, w, err)
				}
				for i := range x1 {
					if x1[i] != xw[i] {
						t.Fatalf("%s/%v workers=%d: x[%d] = %x, serial %x (not bitwise equal)", name, ord, w, i, xw[i], x1[i])
					}
				}
				ws.Close()
			}
			// Orderings agree on the fixed point to solver tolerance.
			if ref == nil {
				ref = x1
				continue
			}
			var maxDiff, scale float64
			for i := range ref {
				if d := math.Abs(x1[i] - ref[i]); d > maxDiff {
					maxDiff = d
				}
				if s := math.Abs(ref[i]); s > scale {
					scale = s
				}
			}
			if scale == 0 {
				scale = 1
			}
			if maxDiff/scale > 1e-8 {
				t.Errorf("%s/%v: solution differs from natural by %g (rel), want ≤ 1e-8", name, ord, maxDiff/scale)
			}
		}
	}
}

// TestIC0PermutedBitwiseAcrossDispatch extends the bitwise contract to
// permuted factors: pooled dispatch at every pool size must match the serial
// application exactly under the multicolor ordering.
func TestIC0PermutedBitwiseAcrossDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	systems := map[string]*sparse.BCSR{
		"lattice":   tiled(latticeLike(9, 9, 6)),
		"random":    tiled(randSPDSparse(rng, 1101, 5)),
		"diagonal":  tiled(diagonalCSR(501)),
		"dense-row": tiled(arrowCSR(399)),
	}
	for name, a := range systems {
		for _, ord := range []OrderingKind{OrderingMulticolor} {
			p, err := newIC0(a, ord, PrecisionAuto)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, ord, err)
			}
			if p.Ordering() != ord {
				t.Fatalf("%s/%v: factor reports ordering %v", name, ord, p.Ordering())
			}
			n := a.NRows
			r := make([]float64, n)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			want := make([]float64, n)
			p.Apply(want, r)
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), 8} {
				got := make([]float64, n)
				ws := NewWorkspace(w)
				p.applyPar(got, r, ws)
				ws.Close()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%v pool workers=%d: dst[%d] = %x, want %x", name, ord, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPCGZeroAllocsMulticolor extends the zero-allocation contract to the
// permuted preconditioner path: the permute scratch comes from the
// workspace, so a steady-state solve with a multicolor IC0 allocates
// nothing.
func TestPCGZeroAllocsMulticolor(t *testing.T) {
	a := tiled(elasticity3(10, 10, 8))
	rng := rand.New(rand.NewSource(41))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, workers := range []int{1, 4} {
		m, err := NewPreconditioner(PrecondIC0, OrderingMulticolor, PrecisionAuto, a)
		if err != nil {
			t.Fatal(err)
		}
		if orderingOf(m) != OrderingMulticolor {
			t.Fatalf("preconditioner reports %v", orderingOf(m))
		}
		ws := NewWorkspace(workers)
		opt := Options{Tol: 1e-8, Precond: PrecondIC0, M: m, Work: ws, Workers: workers}
		if _, _, err := PCG(a, b, nil, opt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := PCG(a, b, nil, opt); err != nil {
				t.Fatal(err)
			}
		})
		ws.Close()
		if allocs != 0 {
			t.Errorf("workers=%d: %.1f allocs per steady-state multicolor PCG solve, want 0", workers, allocs)
		}
	}
}
