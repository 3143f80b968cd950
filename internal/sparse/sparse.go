// Package sparse implements the sparse-matrix storage used by the
// MORE-Stress solvers: a triplet (COO) builder for finite-element assembly
// and compressed sparse row/column forms for matrix-vector products and
// factorization.
package sparse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Triplet accumulates (row, col, value) entries; duplicates are summed when
// converting to compressed form, which is exactly the semantics of
// finite-element assembly.
type Triplet struct {
	NRows, NCols int
	rows, cols   []int32
	vals         []float64
}

// NewTriplet creates an empty triplet builder for an r×c matrix with
// capacity for nnz entries.
func NewTriplet(r, c, nnz int) *Triplet {
	return &Triplet{
		NRows: r, NCols: c,
		rows: make([]int32, 0, nnz),
		cols: make([]int32, 0, nnz),
		vals: make([]float64, 0, nnz),
	}
}

// Add appends entry (r, c) += v. Zero values are skipped.
func (t *Triplet) Add(r, c int, v float64) {
	if r < 0 || r >= t.NRows || c < 0 || c >= t.NCols {
		panic(fmt.Sprintf("sparse: Triplet.Add index (%d,%d) out of range %d×%d", r, c, t.NRows, t.NCols))
	}
	if v == 0 {
		return
	}
	t.rows = append(t.rows, int32(r))
	t.cols = append(t.cols, int32(c))
	t.vals = append(t.vals, v)
}

// Len returns the number of raw (pre-compression) entries.
func (t *Triplet) Len() int { return len(t.vals) }

// ToCSR compresses the triplets into CSR form, summing duplicates.
func (t *Triplet) ToCSR() *CSR {
	// Count entries per row.
	rowCount := make([]int32, t.NRows+1)
	for _, r := range t.rows {
		rowCount[r+1]++
	}
	for i := 0; i < t.NRows; i++ {
		rowCount[i+1] += rowCount[i]
	}
	// Scatter into row-bucketed arrays.
	n := len(t.vals)
	colIdx := make([]int32, n)
	vals := make([]float64, n)
	next := make([]int32, t.NRows)
	copy(next, rowCount[:t.NRows])
	for i := 0; i < n; i++ {
		r := t.rows[i]
		p := next[r]
		colIdx[p] = t.cols[i]
		vals[p] = t.vals[i]
		next[r] = p + 1
	}
	m := &CSR{NRows: t.NRows, NCols: t.NCols, RowPtr: rowCount, ColIdx: colIdx, Vals: vals}
	m.sortRowsAndSum()
	return m
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	NRows, NCols int
	RowPtr       []int32 // len NRows+1
	ColIdx       []int32 // len nnz
	Vals         []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Vals) }

// colVal is one stored entry of a row being sorted by column.
type colVal struct {
	c int32
	v float64
}

// byCol orders entries by column for slices.SortFunc, which expands the
// same pdqsort template as sort.Slice: duplicates land in the same order,
// so every summed entry keeps the bits a sort.Slice compaction gives it.
func byCol(a, b colVal) int { return cmp.Compare(a.c, b.c) }

// sortRowsAndSum sorts column indices within each row and merges duplicates.
func (m *CSR) sortRowsAndSum() {
	outCol := m.ColIdx[:0]
	outVal := m.Vals[:0]
	newPtr := make([]int32, m.NRows+1)
	var buf []colVal
	for r := 0; r < m.NRows; r++ {
		start, end := m.RowPtr[r], m.RowPtr[r+1]
		buf = buf[:0]
		for p := start; p < end; p++ {
			buf = append(buf, colVal{m.ColIdx[p], m.Vals[p]})
		}
		slices.SortFunc(buf, byCol)
		for i := 0; i < len(buf); {
			c := buf[i].c
			v := buf[i].v
			j := i + 1
			for j < len(buf) && buf[j].c == c {
				v += buf[j].v
				j++
			}
			outCol = append(outCol, c)
			outVal = append(outVal, v)
			i = j
		}
		newPtr[r+1] = int32(len(outVal))
	}
	m.RowPtr = newPtr
	m.ColIdx = outCol
	m.Vals = outVal
}

// MulVec computes dst = m·x. dst must have length NRows and must not alias x.
//
//stressvet:noalloc
func (m *CSR) MulVec(dst, x []float64) {
	if len(x) != m.NCols || len(dst) != m.NRows {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: matrix %d×%d, x %d, dst %d",
			m.NRows, m.NCols, len(x), len(dst)))
	}
	for r := 0; r < m.NRows; r++ {
		var s float64
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			s += m.Vals[p] * x[m.ColIdx[p]]
		}
		dst[r] = s
	}
}

// MulVecPar computes dst = m·x on a transient pool of at most nworkers
// over contiguous row chunks balanced by nnz (structured FEM matrices have
// heavy boundary rows, so equal-count chunks leave workers idle). It falls
// back to the serial kernel for small matrices. Repeated products belong on
// a resident Pool driving a MatVec instead.
func (m *CSR) MulVecPar(dst, x []float64, nworkers int) {
	if nworkers <= 1 || m.NRows < MinParRows {
		m.MulVec(dst, x)
		return
	}
	bounds := PartitionByWork(m.RowPtr, 0, m.NRows, nworkers)
	runTransient(bounds, nworkers, &MatVec{M: m, Dst: dst, X: x})
}

// At returns element (r, c), 0 if not stored. O(log nnz(row)).
func (m *CSR) At(r, c int) float64 {
	lo, hi := int(m.RowPtr[r]), int(m.RowPtr[r+1])
	i := sort.Search(hi-lo, func(k int) bool { return m.ColIdx[lo+k] >= int32(c) }) + lo
	if i < hi && m.ColIdx[i] == int32(c) {
		return m.Vals[i]
	}
	return 0
}

// Transpose returns mᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	nnz := m.NNZ()
	ptr := make([]int32, m.NCols+1)
	for _, c := range m.ColIdx {
		ptr[c+1]++
	}
	for i := 0; i < m.NCols; i++ {
		ptr[i+1] += ptr[i]
	}
	col := make([]int32, nnz)
	val := make([]float64, nnz)
	next := make([]int32, m.NCols)
	copy(next, ptr[:m.NCols])
	for r := 0; r < m.NRows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			c := m.ColIdx[p]
			q := next[c]
			col[q] = int32(r)
			val[q] = m.Vals[p]
			next[c] = q + 1
		}
	}
	return &CSR{NRows: m.NCols, NCols: m.NRows, RowPtr: ptr, ColIdx: col, Vals: val}
}

// Extract returns the submatrix m[rows, cols] as a new CSR, where keepRow and
// keepCol map old indices to new ones (-1 = dropped). nr and nc are the new
// dimensions.
func (m *CSR) Extract(keepRow, keepCol []int32, nr, nc int) *CSR {
	if len(keepRow) != m.NRows || len(keepCol) != m.NCols {
		panic("sparse: Extract mapping length mismatch")
	}
	t := NewTriplet(nr, nc, m.NNZ())
	for r := 0; r < m.NRows; r++ {
		rr := keepRow[r]
		if rr < 0 {
			continue
		}
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			cc := keepCol[m.ColIdx[p]]
			if cc < 0 {
				continue
			}
			t.Add(int(rr), int(cc), m.Vals[p])
		}
	}
	return t.ToCSR()
}

// Clone returns a deep copy of m.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		NRows: m.NRows, NCols: m.NCols,
		RowPtr: make([]int32, len(m.RowPtr)),
		ColIdx: make([]int32, len(m.ColIdx)),
		Vals:   make([]float64, len(m.Vals)),
	}
	copy(out.RowPtr, m.RowPtr)
	copy(out.ColIdx, m.ColIdx)
	copy(out.Vals, m.Vals)
	return out
}

// MemoryBytes estimates the storage footprint of the matrix in bytes.
func (m *CSR) MemoryBytes() int64 {
	return int64(len(m.RowPtr))*4 + int64(len(m.ColIdx))*4 + int64(len(m.Vals))*8
}
