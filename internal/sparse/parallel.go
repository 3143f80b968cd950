package sparse

// MinParRows is the matrix size below which the parallel kernels fall back
// to their serial loops: under it the fan-out costs more than the
// arithmetic it distributes. A warm Pool handoff is cheap (BenchmarkPoolRun:
// 0.1–0.4 µs on a 2-vCPU x86_64 host), but waking a parked gang costs a
// scheduler wakeup per member and the transient pools of the one-shot
// kernels spawn their goroutines per call. Exported so solver workspaces
// apply the same cutoff to their pooled kernels.
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
// this package (the BCSR product's stripes, CSR.MulVecPar,
// CSR.CompactRows) partitions through here.
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

// funcRunner adapts a plain chunk function to the Runner interface.
type funcRunner func(lo, hi int)

// RunRange implements Runner.
func (f funcRunner) RunRange(lo, hi int) { f(lo, hi) }

// runTransient runs r over the chunks on a pool of workers that lives for
// this one call — the dispatch of the one-shot kernels (MulVecPar,
// CompactRows) whose callers own no resident gang. Hot loops hold a Pool
// across calls instead (solver.Workspace).
func runTransient(bounds []int32, workers int, r Runner) {
	if n := len(bounds) - 1; workers > n {
		workers = n
	}
	p := NewPool(workers)
	p.Run(bounds, r)
	p.Close()
}
