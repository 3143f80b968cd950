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
	check("into-reuse", PartitionByWorkInto(make([]int32, 0, 8), pref, 0, 7, 3), 0, 7)
}

// TestLevelScheduleGappedLevels: schedules built from level arrays with
// holes (as a coloring with unused classes would produce) must compact the
// empty levels away instead of emitting empty chunk lists — the regression
// the multicolor fuzz corpus uncovered.
func TestLevelScheduleGappedLevels(t *testing.T) {
	// Rows at levels {0, 2, 5}: levels 1, 3, 4 are empty.
	level := []int32{0, 2, 5, 0, 2, 5, 0}
	rowPtr := []int32{0, 1, 3, 6, 7, 9, 12, 13}
	s := newLevelSchedule(level, rowPtr, 1)
	if got := s.NumLevels(); got != 3 {
		t.Fatalf("NumLevels = %d, want 3 (empty levels compacted)", got)
	}
	if got := s.MaxWidth(); got != 3 {
		t.Errorf("MaxWidth = %d, want 3", got)
	}
	// Every level's chunk list must be non-empty and strictly increasing,
	// and all rows must appear exactly once in level order.
	seen := make([]bool, len(level))
	for l := 0; l < s.NumLevels(); l++ {
		b := s.levelBounds(l)
		if len(b) < 2 {
			t.Fatalf("level %d has no chunks: %v", l, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("level %d: empty or inverted chunk %v", l, b)
			}
		}
		for i := b[0]; i < b[len(b)-1]; i++ {
			r := s.Order[i]
			if seen[r] {
				t.Fatalf("row %d scheduled twice", r)
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("row %d never scheduled", r)
		}
	}
	// Rows must be grouped by ascending original level.
	wantOrder := []int32{0, 3, 6, 1, 4, 2, 5}
	for i, r := range s.Order {
		if r != wantOrder[i] {
			t.Fatalf("Order = %v, want %v", s.Order, wantOrder)
		}
	}
}

// TestLevelScheduleDegenerateShapes covers the shapes the fuzz corpus
// produces: empty schedules, all-diagonal factors (one level), and
// single-row levels.
func TestLevelScheduleDegenerateShapes(t *testing.T) {
	empty := newLevelSchedule(nil, []int32{0}, 1)
	if empty.NumLevels() != 0 || empty.MaxWidth() != 0 || empty.parallel {
		t.Errorf("empty schedule: levels=%d width=%d parallel=%v", empty.NumLevels(), empty.MaxWidth(), empty.parallel)
	}
	// All rows level 0 (diagonal factor).
	n := 10
	level := make([]int32, n)
	rowPtr := make([]int32, n+1)
	for i := range rowPtr {
		rowPtr[i] = int32(i)
	}
	diag := newLevelSchedule(level, rowPtr, 1)
	if diag.NumLevels() != 1 || diag.MaxWidth() != n {
		t.Errorf("diagonal schedule: levels=%d width=%d, want 1, %d", diag.NumLevels(), diag.MaxWidth(), n)
	}
	// Strictly sequential chain: one row per level.
	for i := range level {
		level[i] = int32(i)
	}
	chain := newLevelSchedule(level, rowPtr, 1)
	if chain.NumLevels() != n || chain.MaxWidth() != 1 || chain.parallel {
		t.Errorf("chain schedule: levels=%d width=%d parallel=%v", chain.NumLevels(), chain.MaxWidth(), chain.parallel)
	}
	for l := 0; l < chain.NumLevels(); l++ {
		if b := chain.levelBounds(l); len(b) != 2 || b[1]-b[0] != 1 {
			t.Fatalf("chain level %d bounds %v, want single 1-row chunk", l, b)
		}
	}
}
