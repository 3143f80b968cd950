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

// TestLevelScheduleRespectsDependencies checks the schedule invariant: every
// off-diagonal tile of a block row must reference a block row placed in a
// strictly earlier level.
func TestLevelScheduleRespectsDependencies(t *testing.T) {
	for name, c := range blockTris(t) {
		bt := c.tri(t, false)
		nb := bt.NBRows()
		for dir, s := range map[string]*LevelSchedule{"fwd": bt.Fwd, "bwd": bt.Bwd} {
			if len(s.Order) != nb {
				t.Fatalf("%s %s: order holds %d block rows, want %d", name, dir, len(s.Order), nb)
			}
			levelOf := make([]int, nb)
			seen := make([]bool, nb)
			for l := 0; l < s.NumLevels(); l++ {
				for i := s.LevelPtr[l]; i < s.LevelPtr[l+1]; i++ {
					r := s.Order[i]
					if seen[r] {
						t.Fatalf("%s %s: block row %d scheduled twice", name, dir, r)
					}
					seen[r] = true
					levelOf[r] = l
				}
			}
			// The forward sweep skips each lower row's last (diagonal) tile,
			// the backward sweep each upper row's first.
			for r := 0; r < nb; r++ {
				cols, _ := bt.Row(r, dir == "bwd")
				deps := cols[:len(cols)-1]
				if dir == "bwd" {
					deps = cols[1:]
				}
				for _, dep := range deps {
					if levelOf[dep] >= levelOf[r] {
						t.Fatalf("%s %s: block row %d (level %d) depends on block row %d (level %d)",
							name, dir, r, levelOf[r], dep, levelOf[dep])
					}
				}
			}
		}
	}
}

// TestLevelScheduleShapes pins the schedule structure of the degenerate
// shapes: a diagonal factor is one wide level, a serial chain is one level
// of width 1 per block row (and must report itself non-parallelizable so
// solves stay serial).
func TestLevelScheduleShapes(t *testing.T) {
	tris := blockTris(t)
	if d := tris["diagonal"].tri(t, false); d.Fwd.NumLevels() != 1 || d.Bwd.NumLevels() != 1 {
		t.Errorf("diagonal: %d/%d levels, want 1/1", d.Fwd.NumLevels(), d.Bwd.NumLevels())
	}
	if c := tris["serial-chain"].tri(t, false); c.Fwd.NumLevels() != c.NBRows() {
		t.Errorf("chain: %d levels, want %d", c.Fwd.NumLevels(), c.NBRows())
	} else if c.Fwd.parallel {
		t.Error("chain schedule claims to be parallelizable")
	}
	// Arrow: every block row but the last is independent (level 0), the
	// dense last block row depends on all of them (level 1).
	if a := tris["dense-row"].tri(t, false); a.Fwd.NumLevels() != 2 {
		t.Errorf("dense-row: %d forward levels, want 2", a.Fwd.NumLevels())
	}
}
