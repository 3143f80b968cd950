package sparse

import "testing"

// TestPartitionByWorkDegenerate pins the degenerate-input contract: no
// partition ever emits an empty chunk — a zero-length range yields zero
// chunks, excess parts collapse, zero-work profiles still split into
// strictly increasing boundaries.
func TestPartitionByWorkDegenerate(t *testing.T) {
	pref := []int32{0, 2, 2, 2, 5, 9, 9, 14}
	check := func(name string, bounds []int32, lo, hi int) {
		t.Helper()
		if hi <= lo {
			if len(bounds) != 0 {
				t.Errorf("%s: empty range produced bounds %v", name, bounds)
			}
			return
		}
		if len(bounds) < 2 || bounds[0] != int32(lo) || bounds[len(bounds)-1] != int32(hi) {
			t.Fatalf("%s: bounds %v do not cover [%d, %d]", name, bounds, lo, hi)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("%s: empty or inverted chunk at %d: %v", name, i, bounds)
			}
		}
	}
	check("empty-range", PartitionByWork(pref, 3, 3, 4), 3, 3)
	check("inverted-range", PartitionByWork(pref, 5, 2, 4), 5, 2)
	check("single-row", PartitionByWork(pref, 2, 3, 8), 2, 3)
	check("excess-parts", PartitionByWork(pref, 0, 7, 100), 0, 7)
	check("zero-parts", PartitionByWork(pref, 0, 7, 0), 0, 7)
	check("negative-parts", PartitionByWork(pref, 0, 7, -3), 0, 7)
	// Zero-work rows (pref flat across [1, 3)).
	check("zero-work", PartitionByWork(pref, 1, 3, 2), 1, 3)
	allZero := []int32{0, 0, 0, 0, 0}
	check("all-zero-work", PartitionByWork(allZero, 0, 4, 3), 0, 4)
}

// TestLevelScheduleDegenerateShapes covers the shapes the fuzz corpus
// produces: an empty factor, an all-diagonal one (two equal halves, no
// tail) and a chain (every row depends on the one before it: no second
// chunk, so the sweep stays serial).
func TestLevelScheduleDegenerateShapes(t *testing.T) {
	empty, err := NewBlockLowerTri([]int32{0}, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := halves(empty.Fwd); a != 0 || b != 0 || empty.Fwd.Tail() != 0 || empty.Fwd.parallel {
		t.Errorf("empty schedule: halves %d/%d, tail %d, parallel %v", a, b, empty.Fwd.Tail(), empty.Fwd.parallel)
	}
	diag := blockCase{diagCSC(BlockSize * 10)}.tri(t, false)
	if a, b := halves(diag.Fwd); a != 5 || b != 5 || diag.Fwd.Tail() != 0 {
		t.Errorf("diagonal schedule: halves %d/%d, tail %d; want 5/5, 0", a, b, diag.Fwd.Tail())
	}
	chain := blockCase{chainCSC(BlockSize * 10)}.tri(t, false)
	if a, b := halves(chain.Fwd); b != 0 || a+chain.Fwd.Tail() != 10 || chain.Fwd.parallel {
		t.Errorf("chain schedule: halves %d/%d, tail %d, parallel %v; want no second chunk", a, b, chain.Fwd.Tail(), chain.Fwd.parallel)
	}
}
