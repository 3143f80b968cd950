package sparse

import "fmt"

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
	nbr := m.NRows / BlockSize
	nbc := m.NCols / BlockSize
	b := &BCSR{NRows: m.NRows, NCols: m.NCols, ScalarNNZ: m.NNZ()}
	b.BRowPtr = make([]int32, nbr+1)
	// Pass 1: count distinct block columns per block row. Scalar rows keep
	// their columns ascending, so a 3-way merge over the block row's scalar
	// rows with a last-seen stamp per row counts without a visited array.
	seen := make([]int32, nbc)
	for i := range seen {
		seen[i] = -1
	}
	for br := 0; br < nbr; br++ {
		var cnt int32
		for i := 0; i < BlockSize; i++ {
			r := BlockSize*br + i
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				bc := m.ColIdx[p] / BlockSize
				if seen[bc] != int32(br) {
					seen[bc] = int32(br)
					cnt++
				}
			}
		}
		b.BRowPtr[br+1] = b.BRowPtr[br] + cnt
	}
	nt := int(b.BRowPtr[nbr])
	b.BColIdx = make([]int32, nt)
	b.Vals = make([]float64, 9*nt)
	// Pass 2: emit each block row's tile set in ascending block-column order
	// (merge of three ascending sequences), then scatter the scalar values
	// into their tiles.
	pos := make([]int32, nbc) // block col -> tile slot, valid for current row
	for br := 0; br < nbr; br++ {
		lo := b.BRowPtr[br]
		// Collect the distinct block columns (stamp with ^br to distinguish
		// from pass 1's stamps).
		cnt := lo
		for i := 0; i < BlockSize; i++ {
			r := BlockSize*br + i
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				bc := m.ColIdx[p] / BlockSize
				if seen[bc] != ^int32(br) {
					seen[bc] = ^int32(br)
					b.BColIdx[cnt] = bc
					cnt++
				}
			}
		}
		sortInt32(b.BColIdx[lo:cnt])
		for q := lo; q < cnt; q++ {
			pos[b.BColIdx[q]] = q
		}
		for i := 0; i < BlockSize; i++ {
			r := BlockSize*br + i
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				c := m.ColIdx[p]
				q := pos[c/BlockSize]
				b.Vals[9*q+int32(BlockSize*i)+c%BlockSize] = m.Vals[p]
			}
		}
	}
	return b, nil
}

// sortInt32 is an insertion sort for the short per-row block-column runs
// (structured FEM rows hold ≤ 9 block neighbors), avoiding sort.Slice's
// closure allocation in the construction path.
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
