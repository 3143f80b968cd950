package sparse

import "fmt"

// BlockLowerTri is a sparse lower-triangular factor L held as dense 3×3
// tiles, stored for fast repeated solves of L·y = b and Lᵀ·z = y — the
// application of the block incomplete-Cholesky preconditioner. Both
// triangles are kept by block rows, so each solve is a gather over finished
// block rows, eliminated in the caller's row order. Each sweep has a
// two-phase schedule (Fwd, Bwd) found once from the tile pattern: two
// independent contiguous runs of rows that share a gang, and an inline
// tail. L stores its rows ascending and Lᵀ descending, the order its sweep
// visits them, so a sweep streams its tiles front to back. The sweeps are
// small GEMV micro-kernels — one column index per tile instead of per
// scalar, unrolled 3×3 inner loops — and because every block row is
// computed by the same kernel, with its terms in the same order, whatever
// the schedule, the two-phase solves are bitwise identical to the serial
// ones.
//
// Values are stored in exactly one precision: float64 (Vals) or float32
// (Vals32). The solve kernels always accumulate in float64, so
// single-precision storage halves factor bytes without changing the
// iteration arithmetic — only the stored factor entries are rounded.
//
// A BlockLowerTri is immutable after construction and safe to share across
// concurrent solves (each caller brings its own BlockTriScratch).
type BlockLowerTri struct {
	N int // scalar dimension (multiple of BlockSize)
	// Lower holds the block rows of L: block columns ascending, diagonal
	// tile last (itself lower-triangular, upper entries zero). Upper holds
	// the block rows of Lᵀ: diagonal tile first, then the columns
	// ascending.
	Lower, Upper TriRows
	// Fwd and Bwd are the two-phase schedules of the forward and backward
	// sweeps, in positions of Lower and Upper.
	Fwd, Bwd *LevelSchedule
}

// TriRows is one triangle of a BlockLowerTri, its block rows stored in the
// order its sweep visits them: position k holds block row k of L, or block
// row nb−1−k of Lᵀ. Its block columns are Idx[Ptr[k]:Ptr[k+1]] and its
// tiles are the 9 values each, row-major, that start at 9·Ptr[k] in Vals
// (or Vals32).
type TriRows struct {
	Ptr, Idx []int32
	// Exactly one of Vals and Vals32 is non-nil.
	Vals   []float64
	Vals32 []float32
}

// NBRows returns the number of block rows.
func (t *BlockLowerTri) NBRows() int { return t.N / BlockSize }

// Row returns block row br of L, or of Lᵀ when upper is set: its block
// columns as stored and the index in the triangle's value array of its
// first tile.
func (t *BlockLowerTri) Row(br int, upper bool) (cols []int32, first int) {
	tr, k := &t.Lower, br
	if upper {
		tr, k = &t.Upper, t.NBRows()-1-br
	}
	return tr.Idx[tr.Ptr[k]:tr.Ptr[k+1]], int(tr.Ptr[k])
}

// MemoryBytes estimates the storage footprint: both triangles. The
// schedules are a few words each.
func (t *BlockLowerTri) MemoryBytes() int64 {
	var b int64
	for _, tr := range []*TriRows{&t.Lower, &t.Upper} {
		b += int64(len(tr.Ptr)+len(tr.Idx))*4 + int64(len(tr.Vals))*8 + int64(len(tr.Vals32))*4
	}
	return b
}

// NewBlockLowerTri builds the factor from L in block-column form, the
// layout a left-looking factorization produces: colPtr bounds each block
// column's tiles (len nb+1), rowIdx holds their block rows — strictly
// ascending, diagonal tile first — and vals holds 9 values per tile, L_IJ
// row-major, the diagonal tiles lower-triangular. Read by columns, those
// tiles are the block rows of Lᵀ.
//
// The two-phase schedules of both sweeps come from the pattern first
// (twoPhaseSplit); then one emit pass over the columns writes each tile to
// its slot in L, as is, and in Lᵀ, transposed. Every row depends only on
// rows before it in its sweep, so the serial sweep is the reference the
// two-phase sweep matches bitwise. When single is true the tile values are
// stored in float32. The inputs are only read.
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
	t := &BlockLowerTri{N: BlockSize * nb}
	s, e := twoPhaseSplit(colPtr, rowIdx)
	par := splitPays(s, e-s, nb)
	t.Fwd = &LevelSchedule{Par: [3]int32{0, int32(s), int32(e)}, n: int32(nb), parallel: par}
	// The backward sweep runs the same three runs in reverse.
	t.Bwd = &LevelSchedule{Par: [3]int32{int32(nb - e), int32(nb - s), int32(nb)}, n: int32(nb), parallel: par}

	// next[i] is L row i's first free slot, up[j] the first slot of Lᵀ
	// row j.
	next, up := make([]int32, nb), make([]int32, nb)
	for _, i := range rowIdx {
		next[i]++
	}
	t.Lower.Ptr, t.Upper.Ptr = make([]int32, nb+1), make([]int32, nb+1)
	for i, n := range next {
		next[i] = t.Lower.Ptr[i]
		t.Lower.Ptr[i+1] = t.Lower.Ptr[i] + n
		j := nb - 1 - i
		up[j] = t.Upper.Ptr[i]
		t.Upper.Ptr[i+1] = t.Upper.Ptr[i] + colPtr[j+1] - colPtr[j]
	}
	t.Lower.Idx, t.Upper.Idx = make([]int32, len(rowIdx)), make([]int32, len(rowIdx))
	if single {
		t.Lower.Vals32, t.Upper.Vals32 = make([]float32, len(vals)), make([]float32, len(vals))
		emitTiles(t, t.Lower.Vals32, t.Upper.Vals32, colPtr, rowIdx, vals, next, up)
	} else {
		t.Lower.Vals, t.Upper.Vals = make([]float64, len(vals)), make([]float64, len(vals))
		emitTiles(t, t.Lower.Vals, t.Upper.Vals, colPtr, rowIdx, vals, next, up)
	}
	return t, nil
}

// emitTiles walks the block columns once and stores tile p of vals, block
// (I, J), in slot next[I] of L as is and in slot upStart[J] + (p − colPtr[J])
// of Lᵀ transposed, rounding to the storage type T; next[I] advances past
// each slot it hands out.
func emitTiles[T float32 | float64](t *BlockLowerTri, lower, upper []T, colPtr, rowIdx []int32, vals []float64, next, upStart []int32) {
	for j, u := range upStart {
		for p := colPtr[j]; p < colPtr[j+1]; p, u = p+1, u+1 {
			i := rowIdx[p]
			q := next[i]
			next[i] = q + 1
			t.Lower.Idx[q], t.Upper.Idx[u] = int32(j), i
			src := vals[9*p : 9*p+9 : 9*p+9]
			lo := lower[9*q : 9*q+9 : 9*q+9]
			up := upper[9*u : 9*u+9 : 9*u+9]
			for r := 0; r < BlockSize; r++ {
				for c := 0; c < BlockSize; c++ {
					v := T(src[BlockSize*r+c])
					lo[BlockSize*r+c] = v
					up[BlockSize*c+r] = v
				}
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

// blockFwdRow computes block row br of the forward solve from its block
// columns cols (diagonal last) and their tiles: a 3×3 GEMV subtract per
// off-diagonal tile, then the dense lower-triangular solve of the diagonal
// tile. The row is walked off the front of shrinking slices, so each tile
// costs two bounds checks (its values and its x block). Accumulation is
// always float64 regardless of the stored precision T. This single kernel
// serves the serial and parallel paths, so they are bitwise identical for
// every worker count.
//
//stressvet:noalloc
//stressvet:bce 5
func blockFwdRow[T float32 | float64](cols []int32, tiles []T, dst, b []float64, br int) {
	r := BlockSize * br
	bi := (*[3]float64)(b[r:])
	s0, s1, s2 := bi[0], bi[1], bi[2]
	for len(cols) > 1 {
		t := (*[9]T)(tiles)
		x := (*[3]float64)(dst[BlockSize*int(cols[0]):])
		cols, tiles = cols[1:], tiles[9:]
		x0, x1, x2 := x[0], x[1], x[2]
		s0 -= float64(t[0])*x0 + float64(t[1])*x1 + float64(t[2])*x2
		s1 -= float64(t[3])*x0 + float64(t[4])*x1 + float64(t[5])*x2
		s2 -= float64(t[6])*x0 + float64(t[7])*x1 + float64(t[8])*x2
	}
	d := (*[9]T)(tiles)
	y0 := s0 / float64(d[0])
	y1 := (s1 - float64(d[3])*y0) / float64(d[4])
	y2 := (s2 - float64(d[6])*y0 - float64(d[7])*y1) / float64(d[8])
	o := (*[3]float64)(dst[r:])
	o[0], o[1], o[2] = y0, y1, y2
}

// blockBwdRow computes block row br of the backward solve against the
// tiles of Lᵀ, diagonal tile first and upper-triangular, as blockFwdRow
// does the forward one.
//
//stressvet:noalloc
//stressvet:bce 5
func blockBwdRow[T float32 | float64](cols []int32, tiles []T, dst, b []float64, br int) {
	r := BlockSize * br
	bi := (*[3]float64)(b[r:])
	s0, s1, s2 := bi[0], bi[1], bi[2]
	d := (*[9]T)(tiles)
	tiles = tiles[9:]
	for len(cols) > 1 {
		t := (*[9]T)(tiles)
		x := (*[3]float64)(dst[BlockSize*int(cols[1]):])
		cols, tiles = cols[1:], tiles[9:]
		x0, x1, x2 := x[0], x[1], x[2]
		s0 -= float64(t[0])*x0 + float64(t[1])*x1 + float64(t[2])*x2
		s1 -= float64(t[3])*x0 + float64(t[4])*x1 + float64(t[5])*x2
		s2 -= float64(t[6])*x0 + float64(t[7])*x1 + float64(t[8])*x2
	}
	z2 := s2 / float64(d[8])
	z1 := (s1 - float64(d[5])*z2) / float64(d[4])
	z0 := (s0 - float64(d[1])*z1 - float64(d[2])*z2) / float64(d[0])
	o := (*[3]float64)(dst[r:])
	o[0], o[1], o[2] = z0, z1, z2
}

// sweepRows solves the rows at sweep positions [lo, hi) of one triangle
// with the forward or backward kernel: position k is block row k of L, or
// block row nb−1−k of Lᵀ.
//
//stressvet:noalloc
func sweepRows[T float32 | float64](tr *TriRows, vals []T, dst, b []float64, lo, hi int, upper bool) {
	last := len(tr.Ptr) - 2
	for k := lo; k < hi; k++ {
		p, e := int(tr.Ptr[k]), int(tr.Ptr[k+1])
		if upper {
			blockBwdRow(tr.Idx[p:e], vals[9*p:9*e], dst, b, last-k)
		} else {
			blockFwdRow(tr.Idx[p:e], vals[9*p:9*e], dst, b, k)
		}
	}
}

// sweep solves the rows at sweep positions [lo, hi) of tr in its stored
// precision.
//
//stressvet:noalloc
func (tr *TriRows) sweep(dst, b []float64, lo, hi int, upper bool) {
	if tr.Vals32 != nil {
		sweepRows(tr, tr.Vals32, dst, b, lo, hi, upper)
		return
	}
	sweepRows(tr, tr.Vals, dst, b, lo, hi, upper)
}

// SolveLower solves L·dst = b serially, in the stored sweep order (the
// reference the two-phase path matches bitwise). dst and b may alias.
//
//stressvet:noalloc
func (t *BlockLowerTri) SolveLower(dst, b []float64) {
	t.Lower.sweep(dst, b, 0, t.NBRows(), false)
}

// SolveUpper solves Lᵀ·dst = b serially, in the stored sweep order. dst and
// b may alias.
//
//stressvet:noalloc
func (t *BlockLowerTri) SolveUpper(dst, b []float64) {
	t.Upper.sweep(dst, b, 0, t.NBRows(), true)
}

// BlockTriScratch carries the per-caller state of the parallel blocked
// solves (the dispatched op), so a shared factor keeps no mutable state and
// pooled solves allocate nothing. Not safe for two concurrent solves; the
// zero value is ready to use.
type BlockTriScratch struct {
	op blockTriRun
}

// blockTriRun is the Runner of a two-phase sweep: it solves the rows at
// sweep positions [lo, hi) of one triangle.
type blockTriRun struct {
	tr    *TriRows
	dst   []float64
	b     []float64
	upper bool
}

// RunRange implements Runner over sweep positions.
//
//stressvet:noalloc
func (o *blockTriRun) RunRange(lo, hi int) { o.tr.sweep(o.dst, o.b, lo, hi, o.upper) }

// SolveLowerPar solves L·dst = b with the forward two-phase schedule: the
// runs A and B_far as two chunks on pool's gang, then B_cut inline. A nil
// or single-worker pool, or a schedule whose split does not pay, takes the
// plain serial loop. Results are bitwise identical to SolveLower for every
// pool size. sc carries the dispatched op and must be non-nil when pool
// is. dst and b may alias.
//
//stressvet:noalloc
func (t *BlockLowerTri) SolveLowerPar(dst, b []float64, pool *Pool, sc *BlockTriScratch) {
	t.solvePar(t.Fwd, &t.Lower, dst, b, false, pool, sc)
}

// SolveUpperPar solves Lᵀ·dst = b with the backward two-phase schedule:
// B_cut inline, then B_far and A as two chunks; see SolveLowerPar.
//
//stressvet:noalloc
func (t *BlockLowerTri) SolveUpperPar(dst, b []float64, pool *Pool, sc *BlockTriScratch) {
	t.solvePar(t.Bwd, &t.Upper, dst, b, true, pool, sc)
}

//stressvet:noalloc
func (t *BlockLowerTri) solvePar(s *LevelSchedule, tr *TriRows, dst, b []float64, upper bool, pool *Pool, sc *BlockTriScratch) {
	if !s.fansOut(pool) {
		tr.sweep(dst, b, 0, t.NBRows(), upper)
		return
	}
	op := &sc.op
	*op = blockTriRun{tr: tr, dst: dst, b: b, upper: upper}
	s.run(pool, op)
	*op = blockTriRun{}
}
