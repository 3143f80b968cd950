package sparse

import (
	"fmt"
	"slices"
)

// BlockSize is the tile edge of the blocked storage formats. The global
// stage's DoFs are 3-component node displacements, so every reduced global
// matrix (and its IC0 factor) has natural 3×3 node-block sparsity; the
// blocked kernels exploit it with one index per tile instead of one per
// scalar (~1/3 the index traffic) and fully unrolled dense 3×3 micro-kernels
// the compiler can keep in registers.
const BlockSize = 3

// BCSR is a block-compressed sparse row matrix with dense 3×3 tiles: the
// scalar CSR layout lifted to block granularity. Scalar entries absent from
// the CSR pattern but inside a stored tile are explicit zeros — they change
// nothing numerically (0·x terms) and buy the dense inner loop. A BCSR is
// immutable after construction and safe to share across concurrent products.
type BCSR struct {
	NRows, NCols int // scalar dimensions (multiples of BlockSize)
	// BRowPtr bounds each block row's tiles (len NRows/3+1).
	BRowPtr []int32
	// BColIdx is the block-column index of each tile, ascending per row.
	BColIdx []int32
	// Vals holds 9 scalars per tile, row-major.
	Vals []float64
	// ScalarNNZ is the stored-entry count of the source CSR matrix; the fill
	// ratio ScalarNNZ/(9·tiles) measures how much zero padding blocking cost.
	ScalarNNZ int
}

// NBRows returns the number of block rows.
func (m *BCSR) NBRows() int { return m.NRows / BlockSize }

// NNZBlocks returns the number of stored tiles.
func (m *BCSR) NNZBlocks() int { return len(m.BColIdx) }

// Fill returns the fraction of stored tile entries that came from the scalar
// pattern (1.0 = every tile fully dense, 1/9 = one scalar per tile). Callers
// use it to decide whether blocking pays: below ~0.5 the padded bytes eat
// the index-traffic win.
func (m *BCSR) Fill() float64 {
	if len(m.BColIdx) == 0 {
		return 1
	}
	return float64(m.ScalarNNZ) / float64(9*len(m.BColIdx))
}

// MemoryBytes estimates the storage footprint in bytes.
func (m *BCSR) MemoryBytes() int64 {
	return int64(len(m.BRowPtr)+len(m.BColIdx))*4 + int64(len(m.Vals))*8
}

// NewBCSR blocks a scalar CSR matrix into 3×3 tiles. Both dimensions must be
// multiples of BlockSize; entries are grouped by their block coordinates and
// missing tile entries are zero-filled.
func NewBCSR(m *CSR) (*BCSR, error) {
	if m.NRows%BlockSize != 0 || m.NCols%BlockSize != 0 {
		return nil, fmt.Errorf("sparse: BCSR requires dimensions divisible by %d, got %d×%d", BlockSize, m.NRows, m.NCols)
	}
	b := &BCSR{NRows: m.NRows, NCols: m.NCols, ScalarNNZ: m.NNZ()}
	b.BRowPtr, b.BColIdx, b.Vals = tileRows(m.NRows/BlockSize, m.NCols/BlockSize, m.RowPtr, m.ColIdx, m.Vals)
	return b, nil
}

// ToCSR expands the tiles into a scalar CSR matrix, dropping exact zeros —
// the tile padding, and any zero the source CSR stored. On a source without
// stored zeros, ToCSR(NewBCSR(m)) reproduces m bitwise.
func (m *BCSR) ToCSR() *CSR {
	nbr := m.NBRows()
	rowPtr := make([]int32, m.NRows+1)
	for br := 0; br < nbr; br++ {
		for p := m.BRowPtr[br]; p < m.BRowPtr[br+1]; p++ {
			for k, v := range m.Vals[9*p : 9*p+9] {
				if v != 0 {
					rowPtr[BlockSize*br+k/BlockSize+1]++
				}
			}
		}
	}
	for r := 0; r < m.NRows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	nnz := rowPtr[m.NRows]
	colIdx := make([]int32, nnz)
	vals := make([]float64, nnz)
	for br := 0; br < nbr; br++ {
		for i := 0; i < BlockSize; i++ {
			q := rowPtr[BlockSize*br+i]
			for p := m.BRowPtr[br]; p < m.BRowPtr[br+1]; p++ {
				for j := int32(0); j < BlockSize; j++ {
					if v := m.Vals[9*p+int32(BlockSize*i)+j]; v != 0 {
						colIdx[q] = BlockSize*m.BColIdx[p] + j
						vals[q] = v
						q++
					}
				}
			}
		}
	}
	return &CSR{NRows: m.NRows, NCols: m.NCols, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
}

// DiagTile returns block row br's diagonal tile (9 values, row-major, aliasing
// Vals), or nil when the block row stores none.
func (m *BCSR) DiagTile(br int) []float64 {
	lo, hi := m.BRowPtr[br], m.BRowPtr[br+1]
	k, ok := slices.BinarySearch(m.BColIdx[lo:hi], int32(br))
	if !ok {
		return nil
	}
	q := 9 * (int(lo) + k)
	return m.Vals[q : q+9 : q+9]
}

// MulVec computes dst = m·x with the blocked kernel: one tile GEMV per
// stored block, three independent accumulators per block row. dst must not
// alias x.
//
//stressvet:noalloc
func (m *BCSR) MulVec(dst, x []float64) {
	if len(x) != m.NCols || len(dst) != m.NRows {
		panic(fmt.Sprintf("sparse: BCSR MulVec dimension mismatch: matrix %d×%d, x %d, dst %d",
			m.NRows, m.NCols, len(x), len(dst)))
	}
	m.mulVecRange(dst, x, 0, m.NBRows())
}

// mulVecRange is the blocked mat-vec kernel over block rows [lo, hi); the
// serial and pooled paths all run it, so their results are bitwise
// identical.
//
//stressvet:noalloc
func (m *BCSR) mulVecRange(dst, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		var s0, s1, s2 float64
		for p := m.BRowPtr[br]; p < m.BRowPtr[br+1]; p++ {
			c := m.BColIdx[p] * BlockSize
			t := m.Vals[9*p : 9*p+9 : 9*p+9]
			x0, x1, x2 := x[c], x[c+1], x[c+2]
			s0 += t[0]*x0 + t[1]*x1 + t[2]*x2
			s1 += t[3]*x0 + t[4]*x1 + t[5]*x2
			s2 += t[6]*x0 + t[7]*x1 + t[8]*x2
		}
		r := BlockSize * br
		dst[r] = s0
		dst[r+1] = s1
		dst[r+2] = s2
	}
}

// MulVecPar computes dst = m·x on a transient pool of at most nworkers over
// contiguous block-row chunks balanced by tile count (uniform 9-flop tiles,
// so tile count is the exact work profile — the blocked analogue of
// PartitionByWork's scalar-nnz weighting). Falls back to the serial kernel
// for small matrices.
func (m *BCSR) MulVecPar(dst, x []float64, nworkers int) {
	if nworkers <= 1 || m.NRows < MinParRows {
		m.MulVec(dst, x)
		return
	}
	bounds := PartitionByWork(m.BRowPtr, 0, m.NBRows(), nworkers)
	runTransient(bounds, nworkers, &BlockMatVec{M: m, Dst: dst, X: x})
}

// BlockMatVec is a pooled blocked matrix-vector product: dst = M·x over the
// block-row chunks fed to Pool.Run. Like MatVec, it lives in a reusable
// workspace so dispatch never allocates.
type BlockMatVec struct {
	M      *BCSR
	Dst, X []float64
}

// RunRange implements Runner over block rows.
//
//stressvet:noalloc
func (o *BlockMatVec) RunRange(lo, hi int) {
	o.M.mulVecRange(o.Dst, o.X, lo, hi)
}
