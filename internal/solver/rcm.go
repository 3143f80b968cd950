// Package solver provides the linear solvers of the MORE-Stress pipeline: a
// reverse Cuthill–McKee fill-reducing ordering, a sparse Cholesky
// factorization for the one-shot local stage (one factorization, many
// right-hand sides), and preconditioned CG and restarted GMRES iterative
// solvers (block-Jacobi-3 or IC0) for the reference FEM and the global
// stage.
package solver

import (
	"sort"

	"repro/internal/sparse"
)

// RCM computes a reverse Cuthill–McKee ordering of the symmetric sparsity
// pattern of m, returning perm with perm[old] = new. The ordering reduces
// matrix bandwidth/profile, which shrinks Cholesky fill dramatically on the
// structured meshes used here. Disconnected components are handled by
// restarting from the minimum-degree unvisited node.
func RCM(m *sparse.CSR) []int32 {
	n := m.NRows
	deg := make([]int32, n)
	for r := 0; r < n; r++ {
		deg[r] = m.RowPtr[r+1] - m.RowPtr[r]
	}
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	queue := make([]int32, 0, n)
	neigh := make([]int32, 0, 64)

	// Seed selection: the nodes sorted once by (degree, index), walked with
	// a rolling cursor that only ever advances. Every component restart
	// resumes the scan where the last one stopped, so seeding costs
	// O(n log n) total instead of the O(n · components) of re-scanning all
	// nodes per component — which matters on fragmented patterns with many
	// components. The stable sort preserves the index tie-break of a linear
	// min-degree scan, so the ordering is unchanged.
	seeds := make([]int32, n)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	sort.SliceStable(seeds, func(i, j int) bool { return deg[seeds[i]] < deg[seeds[j]] })
	cursor := 0

	for len(order) < n {
		for visited[seeds[cursor]] {
			cursor++
		}
		seed := seeds[cursor]
		visited[seed] = true
		queue = append(queue[:0], seed)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			neigh = neigh[:0]
			for p := m.RowPtr[v]; p < m.RowPtr[v+1]; p++ {
				w := m.ColIdx[p]
				if !visited[w] {
					visited[w] = true
					neigh = append(neigh, w)
				}
			}
			sort.Slice(neigh, func(i, j int) bool { return deg[neigh[i]] < deg[neigh[j]] })
			queue = append(queue, neigh...)
		}
	}

	// Reverse the order and invert to perm[old] = new.
	perm := make([]int32, n)
	for i, v := range order {
		perm[v] = int32(n - 1 - i)
	}
	return perm
}
