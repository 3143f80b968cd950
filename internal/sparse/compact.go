package sparse

import "slices"

// CompactRows sorts the column indices within each row and sums duplicate
// entries, returning the compacted matrix. Rows are processed in parallel
// over nnz-balanced chunks; this is the finishing step of scatter-style
// assemblies that append unordered duplicated entries row by row. Both
// passes share one transient pool of workers.
func (m *CSR) CompactRows(workers int) *CSR {
	n := m.NRows
	newLen := make([]int32, n)
	bounds := PartitionByWork(m.RowPtr, 0, n, workers)
	pool := NewPool(workers)
	defer pool.Close()
	pool.Run(bounds, funcRunner(func(lo, hi int) {
		var buf []colVal
		for r := lo; r < hi; r++ {
			start, end := m.RowPtr[r], m.RowPtr[r+1]
			buf = buf[:0]
			for p := start; p < end; p++ {
				buf = append(buf, colVal{m.ColIdx[p], m.Vals[p]})
			}
			slices.SortFunc(buf, byCol)
			// Merge duplicates in place back into the row segment.
			w := start
			for i := 0; i < len(buf); {
				c := buf[i].c
				v := buf[i].v
				for i++; i < len(buf) && buf[i].c == c; i++ {
					v += buf[i].v
				}
				m.ColIdx[w] = c
				m.Vals[w] = v
				w++
			}
			newLen[r] = w - start
		}
	}))
	// Compact the row segments into fresh arrays.
	outPtr := make([]int32, n+1)
	for r := 0; r < n; r++ {
		outPtr[r+1] = outPtr[r] + newLen[r]
	}
	nnz := int(outPtr[n])
	outCol := make([]int32, nnz)
	outVal := make([]float64, nnz)
	pool.Run(bounds, funcRunner(func(lo, hi int) {
		for r := lo; r < hi; r++ {
			src := m.RowPtr[r]
			dst := outPtr[r]
			ln := newLen[r]
			copy(outCol[dst:dst+ln], m.ColIdx[src:src+ln])
			copy(outVal[dst:dst+ln], m.Vals[src:src+ln])
		}
	}))
	return &CSR{NRows: m.NRows, NCols: m.NCols, RowPtr: outPtr, ColIdx: outCol, Vals: outVal}
}
