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

// FuzzNaturalIC0 asserts, for arbitrary symmetric patterns, that each
// sweep of the IC0 factor keeps its two-phase schedule's dependence
// invariant (checkTwoPhase) and that the factor applies bitwise
// identically through the serial Apply and through pools of 2 and 4
// workers — which drags the fuzz corpus through the split picker on every
// degenerate shape the patterns produce: single-row runs, all-diagonal
// factors, chains with no second chunk.
func FuzzNaturalIC0(f *testing.F) {
	f.Add([]byte{0})                                // n=3, no edges
	f.Add([]byte{3})                                // all-diagonal
	f.Add([]byte{7, 0, 1, 1, 2, 2, 3})              // chain
	f.Add([]byte{15, 0, 1, 0, 2, 0, 3, 0, 4})       // star
	f.Add([]byte{63, 5, 5, 9, 9})                   // self loops only
	f.Add([]byte{11, 0, 1, 0, 1, 1, 0, 2, 3, 3, 2}) // duplicate edges
	f.Add([]byte("007"))                            // 5 block rows, 1–3 coupled: B_far stops at row 3
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzPattern(data)
		if m == nil {
			return
		}
		n := m.NRows
		p, err := newIC0(tiled(m), PrecisionAuto)
		if err != nil {
			t.Fatalf("ic0: %v", err)
		}
		checkTwoPhase(t, p.l)
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

// checkTwoPhase asserts the invariant both of l's sweeps rely on: a row
// in either chunk of the schedule depends only on rows of its own chunk or
// of the inline run before the chunks.
func checkTwoPhase(t *testing.T, l *sparse.BlockLowerTri) {
	t.Helper()
	nb := l.NBRows()
	for _, upper := range []bool{false, true} {
		par := l.Fwd.Par
		if upper {
			par = l.Bwd.Par
		}
		// part returns the run of sweep position k: 0 inline before the
		// chunks, 1 and 2 the chunks, 3 inline after.
		part := func(k int) int {
			n := 0
			for _, b := range par {
				if k >= int(b) {
					n++
				}
			}
			return n
		}
		// at maps a block row to its sweep position.
		at := func(r int) int {
			if upper {
				return nb - 1 - r
			}
			return r
		}
		for k := 0; k < nb; k++ {
			pk := part(k)
			if pk != 1 && pk != 2 {
				continue
			}
			cols, _ := l.Row(at(k), upper)
			for _, c := range cols {
				if pc := part(at(int(c))); pc != pk && pc != 0 {
					t.Fatalf("upper=%v, schedule %v: row %d of chunk %d depends on row %d of run %d", upper, par, at(k), pk, c, pc)
				}
			}
		}
	}
}
