package sparse

// LevelSchedule is the two-phase schedule of one triangular sweep, found
// from the factor's pattern (NewBlockLowerTri). The sweep's rows split
// into three contiguous runs: a head A, a run B_far that depends on no row
// of A, and the tail B_cut, which starts at the first row after A that
// does (directly or through another B row).
// A and B_far are independent of each other, so one phase runs them as two
// chunks on a gang while the other runs B_cut inline: the forward sweep
// runs {A, B_far} and then B_cut, the backward sweep B_cut and then
// {B_far, A}. A matrix whose rows are numbered from two ends toward a
// middle line (the numbering an array.Assembly gives its free nodes)
// factors into two halves and a tail no wider than that line; a factor in
// a one-ended order has no second half worth a chunk and sweeps serially.
type LevelSchedule struct {
	// Par bounds the two independent chunks in sweep positions:
	// [Par[0], Par[1]) and [Par[1], Par[2]). The positions before Par[0]
	// run inline first, those from Par[2] to the end inline last.
	Par [3]int32
	// n is the number of rows swept.
	n int32
	// parallel records whether the split pays for a two-chunk run (see
	// splitPays); when false the sweep runs serially.
	parallel bool
}

// Tail returns the number of rows the sweep runs inline, outside its two
// chunks.
func (s *LevelSchedule) Tail() int { return int(s.n - (s.Par[2] - s.Par[0])) }

// fansOut reports whether a solve over the schedule dispatches through pool
// at all: it needs a gang of more than one worker and a split that pays.
func (s *LevelSchedule) fansOut(pool *Pool) bool {
	return s.parallel && pool != nil && pool.Workers() > 1
}

// run sweeps the rows before the chunks inline, runs the two chunks through
// pool, and sweeps the rows after them inline.
//
//stressvet:noalloc
func (s *LevelSchedule) run(pool *Pool, op Runner) {
	if s.Par[0] > 0 {
		op.RunRange(0, int(s.Par[0]))
	}
	pool.Run(s.Par[:], op)
	if s.Par[2] < s.n {
		op.RunRange(int(s.Par[2]), int(s.n))
	}
}

// splitPays reports whether two chunks of a and b rows, with the rest of
// n rows inline, are worth a gang dispatch: the matrix has at least
// MinParRows scalar rows and the smaller chunk holds at least a quarter of
// the block rows, so the two-chunk run saves at least that share of a
// sweep.
func splitPays(a, b, n int) bool {
	return BlockSize*n >= MinParRows && 4*min(a, b) >= n
}

// twoPhaseSplit finds the forward sweep's split of the nb block rows of a
// lower factor in block-column form (colPtr, rowIdx as NewBlockLowerTri
// takes them) into A = [0, s), B_far = [s, e) and B_cut = [e, nb). reach[i]
// is the earliest row that row i depends on, through any chain of tiles, or
// i itself; for a head of s rows, e is the first row ≥ s whose reach is
// < s, so no row of B_far depends on A. The head is chosen to maximize the
// smaller of the two chunks, the first such head on a tie; when every head
// leaves a chunk empty, s = e = nb and the sweep runs serially.
func twoPhaseSplit(colPtr, rowIdx []int32) (s, e int) {
	nb := len(colPtr) - 1
	reach := make([]int32, nb)
	for i := range reach {
		reach[i] = int32(i)
	}
	// Column j is finished before any later column reads reach[j], since
	// every tile (i, j) below the diagonal has i > j.
	for j := 0; j < nb; j++ {
		for p := colPtr[j] + 1; p < colPtr[j+1]; p++ {
			reach[rowIdx[p]] = min(reach[rowIdx[p]], reach[j])
		}
	}
	// Walk the heads from the back. Past head h, the first row whose reach
	// is < h is among the rows whose reach is below that of every row
	// between them and h; low holds those rows, nearest on top.
	s, e = nb, nb
	best := 0
	var low []int32
	for h := nb - 1; h > 0; h-- {
		for len(low) > 0 && reach[low[len(low)-1]] >= reach[h] {
			low = low[:len(low)-1]
		}
		end := h // reach[h] < h: row h itself depends on the head
		if int(reach[h]) == h {
			end = nb
			if len(low) > 0 {
				end = int(low[len(low)-1])
			}
		}
		if m := min(h, end-h); m > 0 && m >= best {
			best, s, e = m, h, end
		}
		low = append(low, int32(h))
	}
	return s, e
}
