package sparse

import "fmt"

// BlockLowerTri is the 3×3-tiled form of a LowerTri factor: both triangles
// regrouped into dense tiles (zero-filled where the scalar pattern is
// absent), with dependency levels scheduled over block rows instead of
// scalar rows. The forward/backward sweeps become small GEMV micro-kernels —
// one column index per tile instead of per scalar, unrolled 3×3 inner loops —
// which is where the blocked apply win comes from: triangular solves are
// bandwidth-bound and the tiled layout moves ~1/3 the index bytes.
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
	// ScalarNNZ is the stored-entry count of one scalar triangle.
	ScalarNNZ int
}

// NBRows returns the number of block rows.
func (t *BlockLowerTri) NBRows() int { return t.N / BlockSize }

// Single reports whether the factor values are stored in float32.
func (t *BlockLowerTri) Single() bool { return t.Vals32 != nil }

// Fill returns the fraction of stored tile entries backed by the scalar
// pattern (diagonal tiles count their zero upper halves as padding, so even
// a fully dense node-block factor reads below 1.0).
func (t *BlockLowerTri) Fill() float64 {
	if len(t.BColIdx) == 0 {
		return 1
	}
	return float64(t.ScalarNNZ) / float64(9*len(t.BColIdx))
}

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

// NewBlockLowerTri tiles a scalar LowerTri into 3×3 blocks. The dimension
// must be a multiple of BlockSize (Dirichlet reduction constrains whole
// nodes, so reduced global factors always qualify; arbitrary matrices may
// not — callers fall back to the scalar factor on error). When single is
// true the tile values are stored in float32.
//
// Callers should check Fill() before committing to the blocked form: a
// scalar pattern that scatters one entry per tile inflates memory 9× and
// loses the bandwidth win (the solver keeps the scalar factor below
// BlockFillMin).
func NewBlockLowerTri(src *LowerTri, single bool) (*BlockLowerTri, error) {
	if src.N%BlockSize != 0 {
		return nil, fmt.Errorf("sparse: BlockLowerTri requires dimension divisible by %d, got %d", BlockSize, src.N)
	}
	t := &BlockLowerTri{N: src.N, ScalarNNZ: len(src.Vals)}
	nbr := t.NBRows()
	// Both triangles share the tiling routine: ascending block columns per
	// block row naturally put the diagonal tile last in the lower triangle
	// (all block cols ≤ br) and first in the upper (all block cols ≥ br).
	t.BRowPtr, t.BColIdx, t.Vals = tileRows(nbr, nbr, src.RowPtr, src.ColIdx, src.Vals)
	t.BUpPtr, t.BUpIdx, t.UpVals = tileRows(nbr, nbr, src.UpPtr, src.UpIdx, src.UpVals)
	if single {
		t.Vals32 = roundTiles(t.Vals)
		t.UpVals32 = roundTiles(t.UpVals)
		t.Vals, t.UpVals = nil, nil
	}
	t.buildSchedules()
	return t, nil
}

// tileRows groups nbr block rows of scalar CSR arrays (block-column count
// nbc) into 3×3 tiles, returning block-row pointers, ascending block-column
// indices, and zero-filled tile values. NewBCSR and both triangles of
// NewBlockLowerTri share it.
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

// roundTiles converts tile values to single precision.
func roundTiles(v []float64) []float32 {
	s := make([]float32, len(v))
	for i, x := range v {
		s[i] = float32(x)
	}
	return s
}

// buildSchedules computes forward/backward dependency levels over block
// rows. Tiles carry uniform 9-entry work, so the chunk partitioner weighs
// block rows by tile count scaled to scalar-entry units — keeping the
// levelChunkWork calibration shared with the scalar schedules.
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
	t.Fwd = newLevelScheduleScaled(level, t.BRowPtr, 9)
	for br := nbr - 1; br >= 0; br-- {
		var lv int32
		for p := t.BUpPtr[br] + 1; p < t.BUpPtr[br+1]; p++ {
			if d := level[t.BUpIdx[p]] + 1; d > lv {
				lv = d
			}
		}
		level[br] = lv
	}
	t.Bwd = newLevelScheduleScaled(level, t.BUpPtr, 9)
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
// solves, mirroring TriScratch: a shared factor keeps no mutable state and
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

// SolveLowerPar solves L·dst = b with the forward block-level schedule;
// semantics match LowerTri.SolveLowerPar (dispatched through pool's gang,
// serial for a nil or single-worker pool and for narrow schedules, bitwise
// identical to SolveLower for every pool size). sc must be non-nil when
// pool is.
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
