package sparse

import "fmt"

// LowerTri is a sparse lower-triangular matrix stored for fast repeated
// solves of L·y = b and Lᵀ·z = y — the application of an incomplete-Cholesky
// preconditioner. Both triangles are kept row-major (the upper arrays are
// exactly the CSC storage of L, i.e. Lᵀ in CSR), so each solve is a gather
// over finished entries: row r of the forward solve reads only rows < r,
// row r of the backward solve only rows > r. Rows that do not depend on one
// another are grouped into dependency levels (Fwd, Bwd) computed once from
// the sparsity pattern; rows within a level can be solved concurrently, and
// because every row is computed by the same gather in the same order
// regardless of scheduling, the parallel solves are bitwise identical to
// the serial ones. A LowerTri is immutable after construction and safe to
// share across concurrent solves (each caller brings its own TriScratch).
type LowerTri struct {
	N int
	// Row-major lower triangle: columns ascending, diagonal last in each row.
	RowPtr, ColIdx []int32
	Vals           []float64
	// Row-major upper triangle Lᵀ (= CSC of L): diagonal first in each row.
	UpPtr, UpIdx []int32
	UpVals       []float64
	// Fwd and Bwd are the dependency schedules of the forward (rows
	// ascending) and backward (rows descending) solves.
	Fwd, Bwd *LevelSchedule
}

// NewLowerTriFromCSC builds a LowerTri from the CSC lower triangle produced
// by an incomplete factorization. Each column must be sorted by row with the
// diagonal entry first.
func NewLowerTriFromCSC(l *CSC) (*LowerTri, error) {
	if l.NRows != l.NCols {
		return nil, fmt.Errorf("sparse: LowerTri requires a square matrix, got %d×%d", l.NRows, l.NCols)
	}
	n := l.NCols
	for j := 0; j < n; j++ {
		if l.ColPtr[j] == l.ColPtr[j+1] || l.RowIdx[l.ColPtr[j]] != int32(j) {
			return nil, fmt.Errorf("sparse: LowerTri missing diagonal at column %d", j)
		}
	}
	t := &LowerTri{
		N: n,
		// The CSC arrays are row-major storage of Lᵀ: column j of L is row j
		// of the upper triangle, diagonal first. Shared, not copied.
		UpPtr: l.ColPtr, UpIdx: l.RowIdx, UpVals: l.Vals,
	}
	// Transpose into row-major lower storage. Iterating columns ascending
	// keeps columns sorted within each row, so the diagonal lands last.
	nnz := l.NNZ()
	t.RowPtr = make([]int32, n+1)
	for _, r := range l.RowIdx {
		t.RowPtr[r+1]++
	}
	for i := 0; i < n; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	t.ColIdx = make([]int32, nnz)
	t.Vals = make([]float64, nnz)
	next := make([]int32, n)
	copy(next, t.RowPtr[:n])
	for j := 0; j < n; j++ {
		for p := l.ColPtr[j]; p < l.ColPtr[j+1]; p++ {
			r := l.RowIdx[p]
			q := next[r]
			t.ColIdx[q] = int32(j)
			t.Vals[q] = l.Vals[p]
			next[r] = q + 1
		}
	}
	t.buildSchedules()
	return t, nil
}

// MemoryBytes estimates the storage footprint (both triangles + schedules).
func (t *LowerTri) MemoryBytes() int64 {
	b := int64(len(t.RowPtr)+len(t.ColIdx)+len(t.UpPtr)+len(t.UpIdx))*4 +
		int64(len(t.Vals)+len(t.UpVals))*8
	for _, s := range []*LevelSchedule{t.Fwd, t.Bwd} {
		if s != nil {
			b += int64(len(s.Order)+len(s.LevelPtr)+len(s.Chunks)+len(s.LevelChunk)) * 4
		}
	}
	return b
}

// lowerRow computes one row of the forward solve: dst[r] = (b[r] − Σ_{c<r}
// L[r,c]·dst[c]) / L[r,r]. dst and b may be the same slice. This single
// kernel serves the serial and the parallel path, which is what makes them
// bitwise identical.
//
//stressvet:noalloc
func (t *LowerTri) lowerRow(dst, b []float64, r int32) {
	end := t.RowPtr[r+1] - 1 // diagonal is last
	s := b[r]
	for p := t.RowPtr[r]; p < end; p++ {
		s -= t.Vals[p] * dst[t.ColIdx[p]]
	}
	dst[r] = s / t.Vals[end]
}

// upperRow computes one row of the backward solve: dst[r] = (b[r] − Σ_{c>r}
// Lᵀ[r,c]·dst[c]) / L[r,r]. dst and b may be the same slice.
//
//stressvet:noalloc
func (t *LowerTri) upperRow(dst, b []float64, r int32) {
	pj := t.UpPtr[r] // diagonal is first
	s := b[r]
	for p := pj + 1; p < t.UpPtr[r+1]; p++ {
		s -= t.UpVals[p] * dst[t.UpIdx[p]]
	}
	dst[r] = s / t.UpVals[pj]
}

// SolveLower solves L·dst = b serially in row order (the reference the
// level-scheduled path must match bitwise). dst and b may alias.
//
//stressvet:noalloc
func (t *LowerTri) SolveLower(dst, b []float64) {
	for r := 0; r < t.N; r++ {
		t.lowerRow(dst, b, int32(r))
	}
}

// SolveUpper solves Lᵀ·dst = b serially in reverse row order. dst and b may
// alias.
//
//stressvet:noalloc
func (t *LowerTri) SolveUpper(dst, b []float64) {
	for r := t.N - 1; r >= 0; r-- {
		t.upperRow(dst, b, int32(r))
	}
}

// TriScratch carries the per-caller state of the parallel triangular solves
// (the dispatched op struct), so a cached, shared LowerTri needs no internal
// mutable state and pooled solves allocate nothing. A TriScratch must not be
// used by two solves concurrently; the zero value is ready to use.
type TriScratch struct {
	op triRun
}

// triRun is the Runner of one level: it solves the scheduled rows
// order[lo:hi] with the lower or upper row kernel.
type triRun struct {
	t     *LowerTri
	order []int32
	dst   []float64
	b     []float64
	upper bool
}

// RunRange implements Runner over positions in the level order.
//
//stressvet:noalloc
func (o *triRun) RunRange(lo, hi int) {
	if o.upper {
		for i := lo; i < hi; i++ {
			o.t.upperRow(o.dst, o.b, o.order[i])
		}
		return
	}
	for i := lo; i < hi; i++ {
		o.t.lowerRow(o.dst, o.b, o.order[i])
	}
}

// SolveLowerPar solves L·dst = b with the forward level schedule: levels run
// in order, rows within a level in parallel across pool's gang. Levels too
// narrow to pay for fan-out run inline, and a nil or single-worker pool — or
// a schedule with no parallelizable level at all — takes the plain serial
// loop. Results are bitwise identical to SolveLower for every pool size. sc
// carries the dispatched op and must be non-nil when pool is. dst and b may
// alias.
//
//stressvet:noalloc
func (t *LowerTri) SolveLowerPar(dst, b []float64, pool *Pool, sc *TriScratch) {
	t.solvePar(t.Fwd, dst, b, false, pool, sc)
}

// SolveUpperPar solves Lᵀ·dst = b with the backward level schedule; see
// SolveLowerPar.
//
//stressvet:noalloc
func (t *LowerTri) SolveUpperPar(dst, b []float64, pool *Pool, sc *TriScratch) {
	t.solvePar(t.Bwd, dst, b, true, pool, sc)
}

//stressvet:noalloc
func (t *LowerTri) solvePar(s *LevelSchedule, dst, b []float64, upper bool, pool *Pool, sc *TriScratch) {
	if !s.fansOut(pool) {
		if upper {
			t.SolveUpper(dst, b)
		} else {
			t.SolveLower(dst, b)
		}
		return
	}
	// A plain pointer dispatched through the Runner interface: no closures,
	// so the pooled path stays allocation-free (a captured variable cell
	// would be heap-allocated on every call).
	op := &sc.op
	*op = triRun{t: t, order: s.Order, dst: dst, b: b, upper: upper}
	s.run(pool, op)
	*op = triRun{}
}

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

// levelChunkWork is the minimum nnz a chunk should carry, ~4× the work that
// pays for one pool dispatch: chunks below it cost more in scheduling than
// they recover in parallelism, so narrow levels collapse to a single chunk
// and run inline. Deep, narrow dependency DAGs (bandwidth-ordered factors,
// the reduced global matrices in natural lattice order) therefore fall back
// to the serial loop wholesale — see docs/SOLVER_TUNING.md.
const levelChunkWork = 2048

// maxLevelChunks caps the fan-out of one level.
const maxLevelChunks = 64

// buildSchedules computes the forward and backward level schedules from the
// factor's sparsity.
func (t *LowerTri) buildSchedules() {
	n := t.N
	level := make([]int32, n)
	// Forward: row r depends on its off-diagonal columns (all < r).
	for r := 0; r < n; r++ {
		var lv int32
		for p := t.RowPtr[r]; p < t.RowPtr[r+1]-1; p++ {
			if d := level[t.ColIdx[p]] + 1; d > lv {
				lv = d
			}
		}
		level[r] = lv
	}
	t.Fwd = newLevelSchedule(level, t.RowPtr)
	// Backward: row r of Lᵀ depends on its off-diagonal columns (all > r).
	for r := n - 1; r >= 0; r-- {
		var lv int32
		for p := t.UpPtr[r] + 1; p < t.UpPtr[r+1]; p++ {
			if d := level[t.UpIdx[p]] + 1; d > lv {
				lv = d
			}
		}
		level[r] = lv
	}
	t.Bwd = newLevelSchedule(level, t.UpPtr)
}

// newLevelSchedule counting-sorts the rows by level (preserving natural row
// order within a level, which keeps the parallel gather deterministic) and
// pre-splits each level into nnz-balanced chunks using rowPtr as the work
// profile. Level ids need not be contiguous: empty levels are compacted away
// here, so every emitted level — and therefore every chunk — holds at least
// one row (the dependency propagation of buildSchedules never leaves gaps,
// but schedules built from externally supplied level arrays, e.g. coloring
// classes, may).
func newLevelSchedule(level []int32, rowPtr []int32) *LevelSchedule {
	return newLevelScheduleScaled(level, rowPtr, 1)
}

// newLevelScheduleScaled is newLevelSchedule with a per-entry work scale:
// blocked schedules pass tile pointers with unitWork 9 (scalar entries per
// tile), so the levelChunkWork calibration — tuned in scalar-entry units —
// carries over to tiled sweeps unchanged and chunks stay balanced by actual
// flops rather than raw pointer deltas.
func newLevelScheduleScaled(level []int32, rowPtr []int32, unitWork int32) *LevelSchedule {
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
