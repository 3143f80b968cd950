package sparse

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinParRows is the matrix size below which the parallel kernels fall back
// to their serial loops: under it the fan-out costs more than the
// arithmetic it distributes. A warm Pool handoff is cheap (BenchmarkPoolRun:
// 0.1–0.4 µs on a 2-vCPU x86_64 host), but waking a parked gang costs a
// scheduler wakeup per member and ForEach spawns its goroutines per call.
// Exported so solver workspaces apply the same cutoff to their pooled
// kernels.
const MinParRows = 4096

// PartitionByWork splits the index range [lo, hi) into at most parts
// contiguous chunks balanced by cumulative work, where pref is a prefix-sum
// profile (pref[i+1]−pref[i] is the work of index i — CSR.RowPtr is exactly
// such a profile with work = nnz per row). The returned boundaries are
// strictly increasing, starting at lo and ending at hi; empty chunks are
// never emitted, so the result may hold fewer than parts chunks, and a
// degenerate range (hi ≤ lo) yields no boundaries at all — zero chunks,
// which every dispatcher in this package treats as a no-op. Structured
// FEM matrices have heavy boundary rows, so equal-count row chunks can be
// 2× imbalanced where equal-nnz chunks are not; every parallel row sweep in
// this package (the BCSR product's stripes, CSR.CompactRows) partitions
// through here.
func PartitionByWork(pref []int32, lo, hi, parts int) []int32 {
	if hi <= lo {
		return nil
	}
	if parts > hi-lo {
		parts = hi - lo
	}
	if parts < 1 {
		parts = 1
	}
	dst := make([]int32, 1, parts+1)
	dst[0] = int32(lo)
	total := int64(pref[hi] - pref[lo])
	prev := lo
	for k := 1; k < parts; k++ {
		target := pref[lo] + int32(total*int64(k)/int64(parts))
		// Smallest boundary i in (prev, hi) with pref[i] >= target.
		i := prev + 1
		j := hi
		for i < j {
			mid := int(uint(i+j) >> 1)
			if pref[mid] < target {
				i = mid + 1
			} else {
				j = mid
			}
		}
		if i >= hi {
			break
		}
		if i > prev {
			dst = append(dst, int32(i))
			prev = i
		}
	}
	return append(dst, int32(hi))
}

// ForEach runs fn(w, i) once for every index i in [0, n) and returns when
// all have run: the blocking fork-join of the one-shot parallel loops. Up to
// min(workers, n) goroutines, the caller among them, claim the indices in
// increasing order, one at a time; w is the claiming goroutine's number in
// [0, min(workers, n)), so fn may index per-worker scratch by it. workers
// ≤ 0 means GOMAXPROCS. The join waits on a WaitGroup rather than spinning,
// since a one-shot item (a local solve, a batch job) runs for milliseconds.
// Kernels repeated inside a solve go on a resident Pool instead.
//
//stressvet:gang -- min(workers, n)-1 goroutines plus the caller, joined before ForEach returns
func ForEach(n, workers int, fn func(w, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	run := func(w int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}

// ForChunks splits [0, n) into static chunks of ⌈n/workers⌉ indices
// (workers ≤ 0 means GOMAXPROCS) and runs fn(c, lo, hi) through ForEach for
// the c-th chunk [lo, hi). The partition depends only on n and workers, so
// per-chunk results merged in chunk order do not depend on scheduling.
func ForChunks(n, workers int, fn func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := (n + workers - 1) / workers
	ForEach((n+chunk-1)/chunk, workers, func(_, c int) {
		lo := c * chunk
		fn(c, lo, min(lo+chunk, n))
	})
}
