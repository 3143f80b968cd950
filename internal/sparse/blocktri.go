package sparse

import "fmt"

// BlockLowerTri is a sparse lower-triangular factor L held as dense 3×3
// tiles, stored for fast repeated solves of L·y = b and Lᵀ·z = y — the
// application of the block incomplete-Cholesky preconditioner. Both
// triangles are kept by block rows, so each solve is a gather over finished
// block rows, and block rows that do not depend on one another are grouped
// into dependency levels (Fwd, Bwd) computed once from the tile pattern.
// The sweeps are small GEMV micro-kernels — one column index per tile
// instead of per scalar, unrolled 3×3 inner loops — and because every block
// row is computed by the same kernel whatever the schedule, the parallel
// solves are bitwise identical to the serial ones.
//
// Values are stored in exactly one precision: float64 (Vals/UpVals) or
// float32 (Vals32/UpVals32). The solve kernels always accumulate in float64,
// so single-precision storage halves factor bytes without changing the
// iteration arithmetic — only the stored factor entries are rounded.
//
// A BlockLowerTri is immutable after construction and safe to share across
// concurrent solves (each caller brings its own BlockTriScratch).
type BlockLowerTri struct {
	N int // scalar dimension (multiple of BlockSize)
	// Lower block rows: block columns ascending, diagonal tile last. The
	// diagonal tile is itself lower-triangular (upper entries zero).
	BRowPtr, BColIdx []int32
	// Upper block rows (tiles of Lᵀ): diagonal tile first, then ascending.
	BUpPtr, BUpIdx []int32
	// Tile values, 9 per tile row-major: double-precision pair...
	Vals, UpVals []float64
	// ...or single-precision pair (exactly one pair is non-nil).
	Vals32, UpVals32 []float32
	// Fwd and Bwd are dependency schedules over block rows.
	Fwd, Bwd *LevelSchedule
}

// NBRows returns the number of block rows.
func (t *BlockLowerTri) NBRows() int { return t.N / BlockSize }

// Single reports whether the factor values are stored in float32.
func (t *BlockLowerTri) Single() bool { return t.Vals32 != nil }

// MemoryBytes estimates the storage footprint (both triangles + schedules).
func (t *BlockLowerTri) MemoryBytes() int64 {
	b := int64(len(t.BRowPtr)+len(t.BColIdx)+len(t.BUpPtr)+len(t.BUpIdx))*4 +
		int64(len(t.Vals)+len(t.UpVals))*8 +
		int64(len(t.Vals32)+len(t.UpVals32))*4
	for _, s := range []*LevelSchedule{t.Fwd, t.Bwd} {
		if s != nil {
			b += int64(len(s.Order)+len(s.LevelPtr)+len(s.Chunks)+len(s.LevelChunk)) * 4
		}
	}
	return b
}

// NewBlockLowerTri builds the factor from L in block-column form, the
// layout a left-looking factorization produces: colPtr bounds each block
// column's tiles (len nb+1), rowIdx holds their block rows — strictly
// ascending, diagonal tile first — and vals holds 9 values per tile, L_IJ
// row-major, the diagonal tiles lower-triangular. Read by columns, those
// tiles are the block rows of Lᵀ, so the upper triangle shares colPtr and
// rowIdx (not copied) and transposes each tile; the lower block rows come
// from one counting transpose, which leaves their block columns ascending
// and the diagonal tile last. When single is true the tile values are
// stored in float32. vals is only read.
func NewBlockLowerTri(colPtr, rowIdx []int32, vals []float64, single bool) (*BlockLowerTri, error) {
	nb := len(colPtr) - 1
	if nb < 0 || colPtr[0] != 0 || int(colPtr[nb]) != len(rowIdx) || len(vals) != 9*len(rowIdx) {
		return nil, fmt.Errorf("sparse: BlockLowerTri column form is inconsistent: %d pointers, %d tiles, %d values",
			len(colPtr), len(rowIdx), len(vals))
	}
	for j := 0; j < nb; j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		if lo >= hi || rowIdx[lo] != int32(j) {
			return nil, fmt.Errorf("sparse: BlockLowerTri missing diagonal tile at block column %d", j)
		}
		for p := lo + 1; p < hi; p++ {
			if rowIdx[p] <= rowIdx[p-1] || int(rowIdx[p]) >= nb {
				return nil, fmt.Errorf("sparse: BlockLowerTri block column %d: rows not ascending within [%d, %d)", j, j, nb)
			}
		}
	}
	t := &BlockLowerTri{N: BlockSize * nb, BUpPtr: colPtr, BUpIdx: rowIdx}
	t.BRowPtr = make([]int32, nb+1)
	for _, i := range rowIdx {
		t.BRowPtr[i+1]++
	}
	for i := 0; i < nb; i++ {
		t.BRowPtr[i+1] += t.BRowPtr[i]
	}
	// pos[p] is the lower-triangle slot of column tile p.
	t.BColIdx = make([]int32, len(rowIdx))
	pos := make([]int32, len(rowIdx))
	next := make([]int32, nb)
	copy(next, t.BRowPtr[:nb])
	for j := 0; j < nb; j++ {
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			q := next[rowIdx[p]]
			next[rowIdx[p]] = q + 1
			t.BColIdx[q] = int32(j)
			pos[p] = q
		}
	}
	if single {
		t.Vals32, t.UpVals32 = make([]float32, len(vals)), make([]float32, len(vals))
		emitTiles(t.Vals32, t.UpVals32, vals, pos)
	} else {
		t.Vals, t.UpVals = make([]float64, len(vals)), make([]float64, len(vals))
		emitTiles(t.Vals, t.UpVals, vals, pos)
	}
	t.buildSchedules()
	return t, nil
}

// emitTiles stores column tile p of vals in the lower slot pos[p] as is and
// in the upper slot p transposed, rounding to the storage type T.
func emitTiles[T float32 | float64](lower, upper []T, vals []float64, pos []int32) {
	for p, q := range pos {
		src := vals[9*p : 9*p+9 : 9*p+9]
		lo := lower[9*q : 9*q+9 : 9*q+9]
		up := upper[9*p : 9*p+9 : 9*p+9]
		for i := 0; i < BlockSize; i++ {
			for j := 0; j < BlockSize; j++ {
				v := T(src[BlockSize*i+j])
				lo[BlockSize*i+j] = v
				up[BlockSize*j+i] = v
			}
		}
	}
}

// tileRows groups nbr block rows of scalar CSR arrays (block-column count
// nbc) into 3×3 tiles, returning block-row pointers, ascending block-column
// indices, and zero-filled tile values. NewBCSR tiles with it.
func tileRows(nbr, nbc int, rowPtr, colIdx []int32, vals []float64) (bPtr, bIdx []int32, bVals []float64) {
	bPtr = make([]int32, nbr+1)
	// Pass 1: count distinct block columns per block row, with a last-seen
	// stamp per block column so no visited set needs clearing.
	seen := make([]int32, nbc)
	for i := range seen {
		seen[i] = -1
	}
	for br := 0; br < nbr; br++ {
		var cnt int32
		for i := 0; i < BlockSize; i++ {
			r := BlockSize*br + i
			for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
				bc := colIdx[p] / BlockSize
				if seen[bc] != int32(br) {
					seen[bc] = int32(br)
					cnt++
				}
			}
		}
		bPtr[br+1] = bPtr[br] + cnt
	}
	nt := int(bPtr[nbr])
	bIdx = make([]int32, nt)
	bVals = make([]float64, 9*nt)
	// Pass 2: collect each block row's tile set (stamped with ^br to tell it
	// from pass 1's stamps), sort it ascending, then scatter the scalar
	// values into their tiles.
	pos := make([]int32, nbc) // block col -> tile slot, valid for current row
	for br := 0; br < nbr; br++ {
		lo := bPtr[br]
		cnt := lo
		for i := 0; i < BlockSize; i++ {
			r := BlockSize*br + i
			for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
				bc := colIdx[p] / BlockSize
				if seen[bc] != ^int32(br) {
					seen[bc] = ^int32(br)
					bIdx[cnt] = bc
					cnt++
				}
			}
		}
		sortInt32(bIdx[lo:cnt])
		for q := lo; q < cnt; q++ {
			pos[bIdx[q]] = q
		}
		for i := 0; i < BlockSize; i++ {
			r := BlockSize*br + i
			for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
				c := colIdx[p]
				q := pos[c/BlockSize]
				bVals[9*q+int32(BlockSize*i)+c%BlockSize] = vals[p]
			}
		}
	}
	return bPtr, bIdx, bVals
}

// sortInt32 is an insertion sort for one block row's collected block
// columns, avoiding sort.Slice's closure allocation in the construction
// path. The runs are long — the reduced global matrix averages 82 tiles per
// block row — but nearly sorted: the first scalar row of a node contributes
// its block columns already ascending and the other two add few new ones, so
// the sort stays close to linear.
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// buildSchedules computes forward/backward dependency levels over block
// rows. Tiles carry uniform 9-entry work, so the chunk partitioner weighs
// block rows by tile count scaled to scalar-entry units, the levelChunkWork
// calibration.
func (t *BlockLowerTri) buildSchedules() {
	nbr := t.NBRows()
	level := make([]int32, nbr)
	for br := 0; br < nbr; br++ {
		var lv int32
		for p := t.BRowPtr[br]; p < t.BRowPtr[br+1]-1; p++ {
			if d := level[t.BColIdx[p]] + 1; d > lv {
				lv = d
			}
		}
		level[br] = lv
	}
	t.Fwd = newLevelSchedule(level, t.BRowPtr, 9)
	for br := nbr - 1; br >= 0; br-- {
		var lv int32
		for p := t.BUpPtr[br] + 1; p < t.BUpPtr[br+1]; p++ {
			if d := level[t.BUpIdx[p]] + 1; d > lv {
				lv = d
			}
		}
		level[br] = lv
	}
	t.Bwd = newLevelSchedule(level, t.BUpPtr, 9)
}

// blockFwdRow computes one block row of the forward solve: a 3×3 GEMV
// subtract per off-diagonal tile, then the dense lower-triangular solve of
// the diagonal tile. Accumulation is always float64 regardless of the stored
// precision T. This single kernel serves the serial and parallel paths, so
// they are bitwise identical for every worker count.
//
//stressvet:noalloc
func blockFwdRow[T float32 | float64](ptr, idx []int32, vals []T, dst, b []float64, br int32) {
	r := BlockSize * br
	s0, s1, s2 := b[r], b[r+1], b[r+2]
	end := ptr[br+1] - 1 // diagonal tile is last
	for p := ptr[br]; p < end; p++ {
		c := idx[p] * BlockSize
		t := vals[9*p : 9*p+9 : 9*p+9]
		x0, x1, x2 := dst[c], dst[c+1], dst[c+2]
		s0 -= float64(t[0])*x0 + float64(t[1])*x1 + float64(t[2])*x2
		s1 -= float64(t[3])*x0 + float64(t[4])*x1 + float64(t[5])*x2
		s2 -= float64(t[6])*x0 + float64(t[7])*x1 + float64(t[8])*x2
	}
	d := vals[9*end : 9*end+9 : 9*end+9]
	y0 := s0 / float64(d[0])
	y1 := (s1 - float64(d[3])*y0) / float64(d[4])
	y2 := (s2 - float64(d[6])*y0 - float64(d[7])*y1) / float64(d[8])
	dst[r] = y0
	dst[r+1] = y1
	dst[r+2] = y2
}

// blockBwdRow computes one block row of the backward solve against the
// upper-triangle tiles (Lᵀ, diagonal tile first and upper-triangular).
//
//stressvet:noalloc
func blockBwdRow[T float32 | float64](ptr, idx []int32, vals []T, dst, b []float64, br int32) {
	r := BlockSize * br
	s0, s1, s2 := b[r], b[r+1], b[r+2]
	pj := ptr[br] // diagonal tile is first
	for p := pj + 1; p < ptr[br+1]; p++ {
		c := idx[p] * BlockSize
		t := vals[9*p : 9*p+9 : 9*p+9]
		x0, x1, x2 := dst[c], dst[c+1], dst[c+2]
		s0 -= float64(t[0])*x0 + float64(t[1])*x1 + float64(t[2])*x2
		s1 -= float64(t[3])*x0 + float64(t[4])*x1 + float64(t[5])*x2
		s2 -= float64(t[6])*x0 + float64(t[7])*x1 + float64(t[8])*x2
	}
	d := vals[9*pj : 9*pj+9 : 9*pj+9]
	z2 := s2 / float64(d[8])
	z1 := (s1 - float64(d[5])*z2) / float64(d[4])
	z0 := (s0 - float64(d[1])*z1 - float64(d[2])*z2) / float64(d[0])
	dst[r] = z0
	dst[r+1] = z1
	dst[r+2] = z2
}

// SolveLower solves L·dst = b serially over ascending block rows (the
// reference the level-scheduled path matches bitwise). dst and b may alias.
//
//stressvet:noalloc
func (t *BlockLowerTri) SolveLower(dst, b []float64) {
	nbr := t.NBRows()
	if t.Vals32 != nil {
		for br := 0; br < nbr; br++ {
			blockFwdRow(t.BRowPtr, t.BColIdx, t.Vals32, dst, b, int32(br))
		}
		return
	}
	for br := 0; br < nbr; br++ {
		blockFwdRow(t.BRowPtr, t.BColIdx, t.Vals, dst, b, int32(br))
	}
}

// SolveUpper solves Lᵀ·dst = b serially over descending block rows. dst and
// b may alias.
//
//stressvet:noalloc
func (t *BlockLowerTri) SolveUpper(dst, b []float64) {
	if t.UpVals32 != nil {
		for br := t.NBRows() - 1; br >= 0; br-- {
			blockBwdRow(t.BUpPtr, t.BUpIdx, t.UpVals32, dst, b, int32(br))
		}
		return
	}
	for br := t.NBRows() - 1; br >= 0; br-- {
		blockBwdRow(t.BUpPtr, t.BUpIdx, t.UpVals, dst, b, int32(br))
	}
}

// BlockTriScratch carries the per-caller state of the parallel blocked
// solves (the dispatched op), so a shared factor keeps no mutable state and
// pooled solves allocate nothing. Not safe for two concurrent solves; the
// zero value is ready to use.
type BlockTriScratch struct {
	op blockTriRun
}

// blockTriRun is the Runner of one blocked level: it solves the scheduled
// block rows order[lo:hi] with the forward or backward tile kernel.
type blockTriRun struct {
	t     *BlockLowerTri
	order []int32
	dst   []float64
	b     []float64
	upper bool
}

// RunRange implements Runner over positions in the level order.
//
//stressvet:noalloc
func (o *blockTriRun) RunRange(lo, hi int) {
	t := o.t
	if o.upper {
		if t.UpVals32 != nil {
			for i := lo; i < hi; i++ {
				blockBwdRow(t.BUpPtr, t.BUpIdx, t.UpVals32, o.dst, o.b, o.order[i])
			}
			return
		}
		for i := lo; i < hi; i++ {
			blockBwdRow(t.BUpPtr, t.BUpIdx, t.UpVals, o.dst, o.b, o.order[i])
		}
		return
	}
	if t.Vals32 != nil {
		for i := lo; i < hi; i++ {
			blockFwdRow(t.BRowPtr, t.BColIdx, t.Vals32, o.dst, o.b, o.order[i])
		}
		return
	}
	for i := lo; i < hi; i++ {
		blockFwdRow(t.BRowPtr, t.BColIdx, t.Vals, o.dst, o.b, o.order[i])
	}
}

// SolveLowerPar solves L·dst = b with the forward block-level schedule:
// levels run in order, block rows within a level in parallel across pool's
// gang. Levels too narrow to pay for fan-out run inline, and a nil or
// single-worker pool — or a schedule with no parallelizable level at all —
// takes the plain serial loop. Results are bitwise identical to SolveLower
// for every pool size. sc carries the dispatched op and must be non-nil when
// pool is. dst and b may alias.
//
//stressvet:noalloc
func (t *BlockLowerTri) SolveLowerPar(dst, b []float64, pool *Pool, sc *BlockTriScratch) {
	t.solvePar(t.Fwd, dst, b, false, pool, sc)
}

// SolveUpperPar solves Lᵀ·dst = b with the backward block-level schedule;
// see SolveLowerPar.
//
//stressvet:noalloc
func (t *BlockLowerTri) SolveUpperPar(dst, b []float64, pool *Pool, sc *BlockTriScratch) {
	t.solvePar(t.Bwd, dst, b, true, pool, sc)
}

//stressvet:noalloc
func (t *BlockLowerTri) solvePar(s *LevelSchedule, dst, b []float64, upper bool, pool *Pool, sc *BlockTriScratch) {
	if !s.fansOut(pool) {
		if upper {
			t.SolveUpper(dst, b)
		} else {
			t.SolveLower(dst, b)
		}
		return
	}
	op := &sc.op
	*op = blockTriRun{t: t, order: s.Order, dst: dst, b: b, upper: upper}
	s.run(pool, op)
	*op = blockTriRun{}
}
