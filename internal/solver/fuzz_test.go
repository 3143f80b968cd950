package solver

import (
	"testing"

	"repro/internal/sparse"
)

// fuzzPattern decodes a fuzz payload into a small symmetric SPD matrix:
// the first byte picks a node-blocked n ∈ {3, 6, …, 66} (the solvers take
// 3×3 tiles), every following byte pair (a, b) adds
// the symmetric off-diagonal pair (a%n, b%n), and the diagonal dominates
// whatever accumulated. Degenerate shapes fall out of short payloads:
// all-diagonal matrices (no pairs), single-edge graphs, self-loop-only
// payloads, duplicate edges.
func fuzzPattern(data []byte) *sparse.CSR {
	if len(data) == 0 {
		return nil
	}
	n := 3 * (int(data[0])%22 + 1)
	t := sparse.NewTriplet(n, n, 2*len(data)+n)
	rowSum := make([]float64, n)
	for i := 1; i+1 < len(data); i += 2 {
		r, c := int(data[i])%n, int(data[i+1])%n
		if r == c {
			continue
		}
		v := 1 + float64(int(data[i])-int(data[i+1]))/256
		t.Add(r, c, v)
		t.Add(c, r, v)
		rowSum[r] += abs(v)
		rowSum[c] += abs(v)
	}
	for r := 0; r < n; r++ {
		t.Add(r, r, rowSum[r]+1)
	}
	return t.ToCSR()
}

// FuzzMulticolorOrdering asserts, for arbitrary symmetric patterns, that
// the greedy multicolor ordering is a valid permutation whose color classes
// contain no adjacent pair — and that the multicolor IC0 built on the same
// matrix stays bitwise deterministic across worker counts (which drags the
// fuzz corpus through LevelSchedule/PartitionByWork on every degenerate
// shape the coloring produces: single-row colors, all-diagonal factors,
// one-color matrices).
func FuzzMulticolorOrdering(f *testing.F) {
	f.Add([]byte{0})                                // n=3, no edges
	f.Add([]byte{3})                                // all-diagonal
	f.Add([]byte{7, 0, 1, 1, 2, 2, 3})              // chain
	f.Add([]byte{15, 0, 1, 0, 2, 0, 3, 0, 4})       // star (single-row colors)
	f.Add([]byte{63, 5, 5, 9, 9})                   // self loops only
	f.Add([]byte{11, 0, 1, 0, 1, 1, 0, 2, 3, 3, 2}) // duplicate edges
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzPattern(data)
		if m == nil {
			return
		}
		n := m.NRows
		perm, colorPtr := Multicolor(n, csrRows(m))
		// Contract 1: a valid permutation.
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || int(p) >= n || seen[p] {
				t.Fatalf("perm is not a permutation at %d (n=%d)", p, n)
			}
			seen[p] = true
		}
		// Contract 2: class bounds cover [0, n] with no empty class.
		if len(colorPtr) < 1 || colorPtr[0] != 0 || colorPtr[len(colorPtr)-1] != int32(n) {
			t.Fatalf("colorPtr %v does not cover [0, %d]", colorPtr, n)
		}
		classOf := make([]int32, n)
		for c := 0; c+1 < len(colorPtr); c++ {
			if colorPtr[c+1] <= colorPtr[c] {
				t.Fatalf("empty color class %d: %v", c, colorPtr)
			}
			for i := colorPtr[c]; i < colorPtr[c+1]; i++ {
				classOf[i] = int32(c)
			}
		}
		// Contract 3: no intra-color adjacency.
		for r := 0; r < n; r++ {
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				c := m.ColIdx[p]
				if int(c) != r && classOf[perm[r]] == classOf[perm[c]] {
					t.Fatalf("adjacent %d,%d share color %d", r, c, classOf[perm[r]])
				}
			}
		}
		// Contract 4: the multicolor factor applies bitwise identically at
		// every pool size. The level-count contract is layout-aware under
		// the node coloring: one block level per node color when the factor
		// commits to tiles, and between 1 and 3·nc scalar levels otherwise
		// (rows of one color couple only inside their node, which chains
		// ≤ 3 rows). The scalar depth can fall below nc: the node path that
		// forced a color may couple different components at each step, so
		// no scalar row chain follows it (testdata seed ce91933f8466185f).
		bm := tiled(m)
		p, err := newIC0(bm, OrderingMulticolor, PrecisionAuto)
		if err != nil {
			t.Fatalf("ic0: %v", err)
		}
		lv, _ := p.Levels()
		_, nodePtr := MulticolorNodes(bm)
		nc := len(nodePtr) - 1
		if p.Blocked() {
			if lv != nc {
				t.Fatalf("blocked factor has %d levels, want one per node color (%d)", lv, nc)
			}
		} else if lv < 1 || lv > 3*nc {
			t.Fatalf("scalar factor under node coloring has %d levels, want within [1, %d]", lv, 3*nc)
		}
		r := make([]float64, n)
		for i := range r {
			r[i] = float64(i%7) - 3
		}
		want := make([]float64, n)
		p.Apply(want, r)
		got := make([]float64, n)
		for _, w := range []int{2, 4} {
			ws := NewWorkspace(w)
			p.applyPar(got, r, ws)
			ws.Close()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pool workers=%d: dst[%d] = %x, want %x", w, i, got[i], want[i])
				}
			}
		}
	})
}
