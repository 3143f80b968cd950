package sparse

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// TestForEachRunsEachIndexOnce: every index in [0, n) runs exactly once, on
// a worker numbered below min(workers, n), and each worker claims its
// indices in increasing order — for empty, single, just-under, exact and
// oversubscribed worker counts, with workers ≤ 0 meaning GOMAXPROCS.
func TestForEachRunsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3} {
		eff := workers
		if eff <= 0 {
			eff = runtime.GOMAXPROCS(0)
		}
		for _, n := range []int{0, 1, eff - 1, eff, 1000} {
			checkForEach(t, n, workers, min(eff, n))
			checkForEach(t, n, n+5, n)
		}
	}
}

func checkForEach(t *testing.T, n, workers, limit int) {
	t.Helper()
	runs := make([]atomic.Int32, n)
	last := make([]int, max(limit, 1))
	for w := range last {
		last[w] = -1
	}
	var bad atomic.Int32
	ForEach(n, workers, func(w, i int) {
		if w < 0 || w >= limit || i <= last[w] {
			bad.Add(1)
			return
		}
		last[w] = i
		runs[i].Add(1)
	})
	if b := bad.Load(); b > 0 {
		t.Fatalf("n=%d workers=%d: %d calls had a worker outside [0, %d) or an index out of claim order", n, workers, b, limit)
	}
	for i := range runs {
		if c := runs[i].Load(); c != 1 {
			t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
		}
	}
}

// TestForChunksPartition: ForChunks hands out exactly the ⌈n/workers⌉ split
// the static-chunk callers (fem assembly and loads, sampling) have always
// used, chunk c being [c·chunk, min((c+1)·chunk, n)), so their per-chunk
// buffers merge in the same order at any scheduling.
func TestForChunksPartition(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 3}, {1, 3}, {2, 3}, {3, 3}, {10, 3}, {10, 4}, {9, 4}, {7, 12}, {1000, 3}, {1000, 1}, {5, -1}, {5, 0},
	} {
		t.Run(fmt.Sprintf("n%d/w%d", tc.n, tc.workers), func(t *testing.T) {
			workers := tc.workers
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			var want [][2]int
			chunk := (tc.n + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo, hi := w*chunk, min((w+1)*chunk, tc.n)
				if lo >= hi {
					break
				}
				want = append(want, [2]int{lo, hi})
			}
			got := make([][2]int, len(want))
			var extra atomic.Int32
			ForChunks(tc.n, tc.workers, func(c, lo, hi int) {
				if c < 0 || c >= len(got) {
					extra.Add(1)
					return
				}
				got[c] = [2]int{lo, hi}
			})
			if extra.Load() > 0 || !slices.Equal(got, want) {
				t.Fatalf("chunks %v (+%d out of range), want %v", got, extra.Load(), want)
			}
		})
	}
}
