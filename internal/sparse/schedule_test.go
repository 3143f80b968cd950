package sparse

import (
	"math/rand"
	"testing"
)

// randLowerCSC builds a random n×n lower-triangular CSC matrix with unit-ish
// positive diagonal (diagonal first in each column, rows ascending), the
// storage contract of the incomplete-Cholesky factor.
func randLowerCSC(rng *rand.Rand, n, extraPerCol int) *CSC {
	l := &CSC{NRows: n, NCols: n, ColPtr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		rows := map[int]bool{}
		for k := 0; k < extraPerCol; k++ {
			if r := j + 1 + rng.Intn(n-j); r < n {
				rows[r] = true
			}
		}
		l.RowIdx = append(l.RowIdx, int32(j))
		l.Vals = append(l.Vals, 1+rng.Float64())
		for r := j + 1; r < n; r++ {
			if rows[r] {
				l.RowIdx = append(l.RowIdx, int32(r))
				l.Vals = append(l.Vals, rng.NormFloat64())
			}
		}
		l.ColPtr[j+1] = int32(len(l.Vals))
	}
	return l
}

// diagCSC builds a pure diagonal matrix (single dependency level).
func diagCSC(n int) *CSC {
	l := &CSC{NRows: n, NCols: n, ColPtr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		l.RowIdx = append(l.RowIdx, int32(j))
		l.Vals = append(l.Vals, float64(j%7)+1)
		l.ColPtr[j+1] = int32(j + 1)
	}
	return l
}

// denseLastRowCSC builds an arrow shape: diagonal plus one dense final row.
func denseLastRowCSC(n int) *CSC {
	l := &CSC{NRows: n, NCols: n, ColPtr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		l.RowIdx = append(l.RowIdx, int32(j))
		l.Vals = append(l.Vals, 2)
		if j < n-1 {
			l.RowIdx = append(l.RowIdx, int32(n-1))
			l.Vals = append(l.Vals, 0.5)
		}
		l.ColPtr[j+1] = int32(len(l.Vals))
	}
	return l
}

// chainCSC builds a bidiagonal chain: every row depends on the previous one,
// so there is no parallelism at all (n levels of width 1).
func chainCSC(n int) *CSC {
	l := &CSC{NRows: n, NCols: n, ColPtr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		l.RowIdx = append(l.RowIdx, int32(j))
		l.Vals = append(l.Vals, 3)
		if j+1 < n {
			l.RowIdx = append(l.RowIdx, int32(j+1))
			l.Vals = append(l.Vals, -1)
		}
		l.ColPtr[j+1] = int32(len(l.Vals))
	}
	return l
}

func TestPartitionByWork(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		pref := make([]int32, n+1)
		for i := 0; i < n; i++ {
			w := int32(rng.Intn(50))
			if rng.Intn(10) == 0 {
				w = 3000 // heavy row
			}
			pref[i+1] = pref[i] + w
		}
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		parts := 1 + rng.Intn(12)
		b := PartitionByWork(pref, lo, hi, parts)
		if int(b[0]) != lo || int(b[len(b)-1]) != hi {
			t.Fatalf("bounds %v do not span [%d,%d)", b, lo, hi)
		}
		if len(b)-1 > parts {
			t.Fatalf("got %d chunks, want ≤ %d", len(b)-1, parts)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("bounds %v not strictly increasing", b)
			}
		}
	}
}

func TestPartitionByWorkBalancesHeavyRows(t *testing.T) {
	// 63 light rows + 1 heavy row carrying half the work: a row-count split
	// would put the heavy row with 15 light ones; a work split must isolate
	// the tail so no chunk greatly exceeds the ideal share.
	n := 64
	pref := make([]int32, n+1)
	for i := 0; i < n; i++ {
		w := int32(10)
		if i == n-1 {
			w = 630
		}
		pref[i+1] = pref[i] + w
	}
	b := PartitionByWork(pref, 0, n, 4)
	// The heavy final row must sit alone in the last chunk.
	if int(b[len(b)-2]) != n-1 {
		t.Fatalf("heavy row not isolated: bounds %v", b)
	}
}

// TestLevelScheduleRespectsDependencies checks the two-phase invariant on
// every test factor: in each sweep, a row of either chunk depends only on
// rows of its own chunk that come before it or on rows of the inline run
// that precedes the chunks (backward), and an inline row after the chunks
// (forward) only on rows before it. The serial stored order is a
// topological order too.
func TestLevelScheduleRespectsDependencies(t *testing.T) {
	for name, c := range blockTris(t) {
		bt := c.tri(t, false)
		nb := bt.NBRows()
		for _, dir := range []struct {
			name  string
			s     *LevelSchedule
			tri   *TriRows
			upper bool
		}{{"fwd", bt.Fwd, &bt.Lower, false}, {"bwd", bt.Bwd, &bt.Upper, true}} {
			// at maps a block row to its stored position.
			at := func(r int32) int {
				if dir.upper {
					return nb - 1 - int(r)
				}
				return int(r)
			}
			// run returns the phase part of position k: 0 inline before,
			// 1 and 2 the chunks, 3 inline after.
			run := func(k int) int {
				switch p := dir.s.Par; {
				case k < int(p[0]):
					return 0
				case k < int(p[1]):
					return 1
				case k < int(p[2]):
					return 2
				}
				return 3
			}
			for k := 0; k < nb; k++ {
				r := k
				if dir.upper {
					r = nb - 1 - k
				}
				cols, _ := bt.Row(r, dir.upper)
				deps := cols[:len(cols)-1]
				if dir.upper {
					deps = cols[1:]
				}
				for _, dep := range deps {
					d := at(dep)
					if d >= k {
						t.Fatalf("%s %s: row %d at %d depends on row %d stored after it, at %d", name, dir.name, r, k, dep, d)
					}
					if rk, rd := run(k), run(d); (rk == 1 || rk == 2) && rd != rk && rd != 0 {
						t.Fatalf("%s %s: row %d of chunk %d depends on row %d of part %d", name, dir.name, r, rk, dep, rd)
					}
				}
			}
		}
	}
}

// TestLevelScheduleShapes pins the split of the test shapes: a diagonal
// factor is two equal halves with no tail, a serial chain has no second
// chunk (and must report itself serial), and an arrow's dense last row is
// the whole tail, its other rows two halves. The backward schedule mirrors
// the forward one.
func TestLevelScheduleShapes(t *testing.T) {
	tris := blockTris(t)
	d := tris["diagonal"].tri(t, false)
	if a, b := halves(d.Fwd); a != 83 || b != 84 || d.Fwd.Tail() != 0 {
		t.Errorf("diagonal: halves %d/%d, tail %d; want 83/84, 0", a, b, d.Fwd.Tail())
	}
	if c := tris["serial-chain"].tri(t, false); c.Fwd.parallel {
		t.Error("chain schedule claims to be parallelizable")
	} else if _, b := halves(c.Fwd); b != 0 {
		t.Errorf("chain: second chunk of %d rows, want none", b)
	}
	a := tris["dense-row"].tri(t, false)
	if h0, h1 := halves(a.Fwd); a.Fwd.Tail() != 1 || h0+h1 != a.NBRows()-1 {
		t.Errorf("dense-row: halves %d/%d, tail %d; want the last row alone in the tail", h0, h1, a.Fwd.Tail())
	}
	for name, c := range tris {
		bt := c.tri(t, false)
		fa, fb := halves(bt.Fwd)
		ba, bb := halves(bt.Bwd)
		if fa != bb || fb != ba || bt.Fwd.Tail() != bt.Bwd.Tail() || bt.Fwd.parallel != bt.Bwd.parallel {
			t.Errorf("%s: backward schedule %d/%d tail %d does not mirror forward %d/%d tail %d",
				name, ba, bb, bt.Bwd.Tail(), fa, fb, bt.Fwd.Tail())
		}
	}
}
