package sparse

// LevelSchedule groups the rows of a triangular solve into dependency
// levels: every row in level k depends only on rows in levels < k, so the
// rows of one level can be solved concurrently. Levels are separated by
// barriers; within each level the rows are pre-split into nnz-balanced
// chunks (PartitionByWork granularity), computed once at construction.
type LevelSchedule struct {
	// Order lists the rows grouped by level, ascending within each level.
	Order []int32
	// LevelPtr bounds each level in Order (len = levels+1).
	LevelPtr []int32
	// Chunks holds, per level, nnz-balanced chunk boundaries as positions in
	// Order; level l's bounds are Chunks[LevelChunk[l] : LevelChunk[l+1]+1].
	// Level boundaries are always chunk boundaries, so the slices share
	// endpoints.
	Chunks     []int32
	LevelChunk []int32
	// parallel records whether any level was split into more than one chunk;
	// when false the schedule is pure overhead and solves stay serial.
	parallel bool
}

// NumLevels returns the number of dependency levels.
func (s *LevelSchedule) NumLevels() int { return len(s.LevelPtr) - 1 }

// MaxWidth returns the row count of the widest level — the schedule's
// available parallelism. Narrow schedules (every level under the chunking
// cutoff) run serially no matter how many workers are offered; the solver's
// auto ordering rule keys off this number. Zero for an empty schedule.
func (s *LevelSchedule) MaxWidth() int {
	var w int32
	for l := 0; l < s.NumLevels(); l++ {
		if d := s.LevelPtr[l+1] - s.LevelPtr[l]; d > w {
			w = d
		}
	}
	return int(w)
}

// levelBounds returns the chunk boundaries of level l.
func (s *LevelSchedule) levelBounds(l int) []int32 {
	return s.Chunks[s.LevelChunk[l] : s.LevelChunk[l+1]+1]
}

// fansOut reports whether a solve over the schedule dispatches through pool
// at all: it needs a gang of more than one worker and at least one level
// split into several chunks.
func (s *LevelSchedule) fansOut(pool *Pool) bool {
	return s.parallel && pool != nil && pool.Workers() > 1
}

// run sweeps the levels in order, dispatching each multi-chunk level through
// pool and running single-chunk levels inline (too little work to fan out).
//
//stressvet:noalloc
func (s *LevelSchedule) run(pool *Pool, op Runner) {
	for l := 0; l < s.NumLevels(); l++ {
		bounds := s.levelBounds(l)
		if len(bounds) == 2 {
			op.RunRange(int(bounds[0]), int(bounds[1]))
			continue
		}
		pool.Run(bounds, op)
	}
}

// levelChunkWork is the minimum nnz a chunk should carry: at the blocked
// kernels' roughly half a nanosecond per stored entry, about a microsecond
// of work, several times a warm pool handoff (BenchmarkPoolRun: 0.1–0.4 µs
// on a 2-vCPU x86_64 host). Chunks below it cost more in scheduling than
// they recover in parallelism, so narrow levels collapse to a single chunk
// and run inline. Deep, narrow dependency DAGs (bandwidth-ordered factors,
// the reduced global matrices in natural lattice order) therefore fall back
// to the serial loop wholesale — see docs/SOLVER_TUNING.md.
const levelChunkWork = 2048

// maxLevelChunks caps the fan-out of one level.
const maxLevelChunks = 64

// newLevelSchedule counting-sorts the rows by level (preserving natural row
// order within a level, which keeps the parallel gather deterministic) and
// pre-splits each level into work-balanced chunks, using rowPtr scaled by
// unitWork as the work profile. Blocked schedules pass tile pointers with
// unitWork 9 (scalar entries per tile), so the levelChunkWork calibration —
// tuned in scalar-entry units — balances chunks by actual flops rather than
// raw pointer deltas. Level ids need not be contiguous: empty levels are
// compacted away here, so every emitted level — and therefore every chunk —
// holds at least one row (dependency propagation never leaves gaps, but
// schedules built from externally supplied level arrays, e.g. coloring
// classes, may).
func newLevelSchedule(level []int32, rowPtr []int32, unitWork int32) *LevelSchedule {
	n := len(level)
	var maxLv int32 = -1
	for _, lv := range level {
		if lv > maxLv {
			maxLv = lv
		}
	}
	// Count rows per raw level, then remap the non-empty levels densely.
	count := make([]int32, maxLv+1)
	for _, lv := range level {
		count[lv]++
	}
	remap := make([]int32, maxLv+1)
	var nlevels int32
	for lv, c := range count {
		if c == 0 {
			remap[lv] = -1
			continue
		}
		remap[lv] = nlevels
		nlevels++
	}
	s := &LevelSchedule{
		Order:    make([]int32, n),
		LevelPtr: make([]int32, nlevels+1),
	}
	for lv, c := range count {
		if c > 0 {
			s.LevelPtr[remap[lv]+1] = c
		}
	}
	for l := int32(0); l < nlevels; l++ {
		s.LevelPtr[l+1] += s.LevelPtr[l]
	}
	next := make([]int32, nlevels)
	copy(next, s.LevelPtr[:nlevels])
	for r := 0; r < n; r++ {
		lv := remap[level[r]]
		s.Order[next[lv]] = int32(r)
		next[lv]++
	}
	// Work prefix over the scheduled order: pw[i+1]−pw[i] = work of Order[i].
	pw := make([]int32, n+1)
	for i, r := range s.Order {
		pw[i+1] = pw[i] + unitWork*(rowPtr[r+1]-rowPtr[r])
	}
	s.LevelChunk = make([]int32, nlevels+1)
	for l := int32(0); l < nlevels; l++ {
		lo, hi := int(s.LevelPtr[l]), int(s.LevelPtr[l+1])
		work := int(pw[hi] - pw[lo])
		parts := work / levelChunkWork
		if parts > maxLevelChunks {
			parts = maxLevelChunks
		}
		if parts < 1 {
			parts = 1
		}
		bounds := PartitionByWork(pw, lo, hi, parts)
		if len(bounds) > 2 {
			s.parallel = true
		}
		s.LevelChunk[l] = int32(len(s.Chunks))
		s.Chunks = append(s.Chunks, bounds[:len(bounds)-1]...)
	}
	s.LevelChunk[nlevels] = int32(len(s.Chunks))
	s.Chunks = append(s.Chunks, int32(n))
	return s
}
