package sparse

import "sort"

// CSC is a compressed sparse column matrix, the natural layout for sparse
// Cholesky factorization.
type CSC struct {
	NRows, NCols int
	ColPtr       []int32 // len NCols+1
	RowIdx       []int32 // len nnz, sorted ascending within each column
	Vals         []float64
}

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.Vals) }

// ToCSC converts a CSR matrix to CSC. Because CSR row-major with sorted
// columns transposed yields column-major with sorted rows, this is the
// transpose kernel with dimensions swapped back.
func (m *CSR) ToCSC() *CSC {
	t := m.Transpose() // t is CSR of mᵀ: rows of t are columns of m.
	return &CSC{
		NRows: m.NRows, NCols: m.NCols,
		ColPtr: t.RowPtr, RowIdx: t.ColIdx, Vals: t.Vals,
	}
}

// ToCSR converts back to CSR form.
func (m *CSC) ToCSR() *CSR {
	// A CSC matrix reinterpreted as CSR describes the transpose; transpose
	// again to recover row-major storage of the original.
	asCSR := &CSR{NRows: m.NCols, NCols: m.NRows, RowPtr: m.ColPtr, ColIdx: m.RowIdx, Vals: m.Vals}
	return asCSR.Transpose()
}

// Permute returns P·m·Pᵀ for the symmetric permutation perm, where
// perm[old] = new. Row indices within each column are re-sorted.
func (m *CSC) Permute(perm []int32) *CSC {
	if m.NRows != m.NCols || len(perm) != m.NCols {
		panic("sparse: Permute requires square matrix and full permutation")
	}
	n := m.NCols
	inv := make([]int32, n)
	for old, nw := range perm {
		inv[nw] = int32(old)
	}
	ptr := make([]int32, n+1)
	for newC := 0; newC < n; newC++ {
		oldC := inv[newC]
		ptr[newC+1] = ptr[newC] + (m.ColPtr[oldC+1] - m.ColPtr[oldC])
	}
	nnz := int(ptr[n])
	rows := make([]int32, nnz)
	vals := make([]float64, nnz)
	for newC := 0; newC < n; newC++ {
		oldC := inv[newC]
		k := ptr[newC]
		for p := m.ColPtr[oldC]; p < m.ColPtr[oldC+1]; p++ {
			rows[k] = perm[m.RowIdx[p]]
			vals[k] = m.Vals[p]
			k++
		}
		// Re-sort this column by row index.
		seg := int(ptr[newC])
		end := int(ptr[newC+1])
		idx := rows[seg:end]
		vv := vals[seg:end]
		sortPairs(idx, vv)
	}
	return &CSC{NRows: n, NCols: n, ColPtr: ptr, RowIdx: rows, Vals: vals}
}

// sortPairs sorts idx ascending, permuting vv in lockstep.
func sortPairs(idx []int32, vv []float64) {
	sort.Sort(pairSorter{idx, vv})
}

type pairSorter struct {
	idx []int32
	vv  []float64
}

func (s pairSorter) Len() int           { return len(s.idx) }
func (s pairSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s pairSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.vv[i], s.vv[j] = s.vv[j], s.vv[i]
}
