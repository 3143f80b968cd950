package fem

import (
	"fmt"
	"sync"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// Assemble builds the quadratic global stiffness and thermal load (ΔT = 1).
// A serial pass in element order gives every (element, local node) pair a
// fixed 60-entry segment in each of its node's three rows and sums the load;
// the scatter then runs in parallel over elements, each writing only its own
// segments, and the compaction sums each row's duplicates in an order fixed
// by its segments. The result is bitwise identical across runs and worker
// counts.
// Void elements are skipped; isolated nodes carry identity rows.
//
//stressvet:gang -- `workers` scatter goroutines over disjoint element chunks
func (m *QuadModel) Assemble(workers int) (*Assembled, error) {
	g := m.Grid
	for e, id := range g.MatID {
		if id == mesh.VoidMaterial {
			continue
		}
		if int(id) >= len(m.Mats) {
			return nil, fmt.Errorf("fem: element %d has material id %d outside table of %d", e, id, len(m.Mats))
		}
	}
	if workers < 1 {
		workers = 1
	}
	ne := g.NumElems()
	ndof := m.NumDoFs()

	// Element matrix cache by (size, material).
	cache := map[elemKey]*QuadElemMats{}
	elemMat := make([]*QuadElemMats, ne)
	for e := 0; e < ne; e++ {
		id := g.MatID[e]
		if id == mesh.VoidMaterial {
			continue
		}
		hx, hy, hz := g.ElemSize(e)
		key := elemKey{quantize(hx), quantize(hy), quantize(hz), id}
		em, ok := cache[key]
		if !ok {
			em = ComputeQuadElemMats(hx, hy, hz, m.Mats[id])
			cache[key] = em
		}
		elemMat[e] = em
	}

	// Active-node mask (nodes of non-void elements).
	active := make([]bool, m.NumNodes())
	for e := 0; e < ne; e++ {
		if elemMat[e] == nil {
			continue
		}
		for _, id := range m.ElemNodes(e) {
			active[id] = true
		}
	}

	// Pass 1, serial in element order: the load, and for each (element,
	// local node) the segment slot — how many earlier elements share the
	// node. Inactive nodes hold one identity entry per row instead.
	f := make([]float64, ndof)
	slot := make([]int32, 20*ne)
	uses := make([]int32, m.NumNodes())
	for e := 0; e < ne; e++ {
		em := elemMat[e]
		if em == nil {
			continue
		}
		for a, id := range m.ElemNodes(e) {
			slot[20*e+a] = uses[id]
			uses[id]++
			for c := 0; c < 3; c++ {
				f[3*id+int32(c)] += em.F[3*a+c]
			}
		}
	}
	rowPtr := make([]int32, ndof+1)
	for id, n := range uses {
		w := 60 * n
		if !active[id] {
			w = 1
		}
		for c := 1; c <= 3; c++ {
			rowPtr[3*id+c] = w
		}
	}
	for i := 0; i < ndof; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	nnzRaw := int(rowPtr[ndof])
	colIdx := make([]int32, nnzRaw)
	vals := make([]float64, nnzRaw)
	for id, act := range active {
		if !act {
			for c := 0; c < 3; c++ {
				r := 3*id + c
				colIdx[rowPtr[r]] = int32(r)
				vals[rowPtr[r]] = 1
			}
		}
	}

	// Pass 2: parallel element scatter into the fixed segments.
	var wg sync.WaitGroup
	chunk := (ne + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > ne {
			hi = ne
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var dofs [60]int32
			for e := lo; e < hi; e++ {
				em := elemMat[e]
				if em == nil {
					continue
				}
				nodes := m.ElemNodes(e)
				for a := 0; a < 20; a++ {
					dofs[3*a] = 3 * nodes[a]
					dofs[3*a+1] = 3*nodes[a] + 1
					dofs[3*a+2] = 3*nodes[a] + 2
				}
				for i := 0; i < 60; i++ {
					seg := rowPtr[dofs[i]] + 60*slot[20*e+i/3]
					copy(colIdx[seg:seg+60], dofs[:])
					copy(vals[seg:seg+60], em.K[i][:])
				}
			}
		}(lo, hi)
	}
	wg.Wait()

	raw := &sparse.CSR{NRows: ndof, NCols: ndof, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
	return &Assembled{K: raw.CompactRows(workers), F: f, ActiveNode: active}, nil
}
