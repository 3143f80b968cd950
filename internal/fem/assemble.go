package fem

import (
	"fmt"
	"math"

	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/sparse"
)

// Model couples a grid with its material table.
type Model struct {
	Grid *mesh.Grid
	// Mats maps MatID to material. Elements with mesh.VoidMaterial are
	// skipped entirely.
	Mats []material.Material
}

// TSVMats returns the material table matching the mesh material ids
// (MatSilicon, MatCopper, MatLiner).
func TSVMats(set material.TSVSet) []material.Material {
	return []material.Material{mesh.MatSilicon: set.Bulk, mesh.MatCopper: set.Via, mesh.MatLiner: set.Liner}
}

// Assembled is the outcome of global FEM assembly.
type Assembled struct {
	// K is the (3N)×(3N) stiffness matrix without boundary conditions.
	K *sparse.CSR
	// F is the thermal load vector for ΔT = 1.
	F []float64
	// ActiveNode marks nodes attached to at least one non-void element;
	// inactive nodes carry identity rows in K.
	ActiveNode []bool
}

// NumDoFs returns the total number of displacement DoFs (3 per node).
func (m *Model) NumDoFs() int { return 3 * m.Grid.NumNodes() }

// vtkOffset maps a node's (ox, oy, oz) ∈ {0,1}³ offset within an element
// cell to the VTK local node index.
var vtkOffset = [2][2][2]int{
	{{0, 4}, {3, 7}}, // ox=0: (oy=0,oz=0)=0, (0,1)=4, (1,0)=3, (1,1)=7
	{{1, 5}, {2, 6}}, // ox=1
}

// elemKey caches element matrices by size and material; coordinates are
// rounded so replicated blocks share cache entries.
type elemKey struct {
	hx, hy, hz int64
	mat        uint8
}

func quantize(v float64) int64 { return int64(math.Round(v * 1e9)) }

// Assemble builds the global stiffness matrix and thermal load vector. The
// assembly is parallel over static node chunks (each chunk owns whole
// matrix rows, so no synchronization on values is needed) and element matrices are
// cached by (size, material), which makes structured-array assembly cheap.
func (m *Model) Assemble(workers int) (*Assembled, error) {
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

	// Precompute the per-element matrix cache.
	cache := map[elemKey]*ElemMats{}
	elemMat := make([]*ElemMats, g.NumElems())
	for e := 0; e < g.NumElems(); e++ {
		id := g.MatID[e]
		if id == mesh.VoidMaterial {
			continue
		}
		hx, hy, hz := g.ElemSize(e)
		key := elemKey{quantize(hx), quantize(hy), quantize(hz), id}
		em, ok := cache[key]
		if !ok {
			em = ComputeElemMats(hx, hy, hz, m.Mats[id])
			cache[key] = em
		}
		elemMat[e] = em
	}

	nn := g.NumNodes()
	active := g.ActiveNodes()
	nx, ny, nz := len(g.Xs), len(g.Ys), len(g.Zs)

	// Pass 1: per-DoF row sizes. A node row holds 3 columns per lattice
	// neighbour (including itself); inactive nodes get identity rows.
	rowPtr := make([]int32, 3*nn+1)
	neighborCount := func(i, j, k int) int {
		c := 0
		for dk := -1; dk <= 1; dk++ {
			kk := k + dk
			if kk < 0 || kk >= nz {
				continue
			}
			for dj := -1; dj <= 1; dj++ {
				jj := j + dj
				if jj < 0 || jj >= ny {
					continue
				}
				for di := -1; di <= 1; di++ {
					ii := i + di
					if ii < 0 || ii >= nx {
						continue
					}
					c++
				}
			}
		}
		return c
	}
	for n := 0; n < nn; n++ {
		var sz int32
		if active[n] {
			i, j, k := g.NodeIJK(n)
			sz = int32(3 * neighborCount(i, j, k))
		} else {
			sz = 1
		}
		rowPtr[3*n+1] = sz
		rowPtr[3*n+2] = sz
		rowPtr[3*n+3] = sz
	}
	for r := 0; r < 3*nn; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	nnz := int(rowPtr[3*nn])
	colIdx := make([]int32, nnz)
	vals := make([]float64, nnz)
	f := make([]float64, 3*nn)

	// Pass 2: fill rows in parallel over node ranges.
	nex, ney := g.NEX(), g.NEY()
	fill := func(lo, hi int) {
		// block[c][slot] accumulates the 3 rows of the node against up to
		// 27 neighbour nodes × 3 components.
		var block [3][81]float64
		var neigh [27]int32 // neighbour node indices, ascending
		var slotOf [27]int8 // (di+1)+3(dj+1)+9(dk+1) -> slot or -1
		for n := lo; n < hi; n++ {
			base := 3 * n
			if !active[n] {
				for c := 0; c < 3; c++ {
					p := rowPtr[base+c]
					colIdx[p] = int32(base + c)
					vals[p] = 1
				}
				continue
			}
			i, j, k := g.NodeIJK(n)
			nNeigh := 0
			for s := range slotOf {
				slotOf[s] = -1
			}
			for dk := -1; dk <= 1; dk++ {
				kk := k + dk
				if kk < 0 || kk >= nz {
					continue
				}
				for dj := -1; dj <= 1; dj++ {
					jj := j + dj
					if jj < 0 || jj >= ny {
						continue
					}
					for di := -1; di <= 1; di++ {
						ii := i + di
						if ii < 0 || ii >= nx {
							continue
						}
						neigh[nNeigh] = int32(g.NodeIndex(ii, jj, kk))
						slotOf[(di+1)+3*(dj+1)+9*(dk+1)] = int8(nNeigh)
						nNeigh++
					}
				}
			}
			for c := 0; c < 3; c++ {
				for s := 0; s < 3*nNeigh; s++ {
					block[c][s] = 0
				}
			}
			var fn [3]float64
			// Incident elements: cells (i-1..i, j-1..j, k-1..k).
			for ek := k - 1; ek <= k; ek++ {
				if ek < 0 || ek >= g.NEZ() {
					continue
				}
				for ej := j - 1; ej <= j; ej++ {
					if ej < 0 || ej >= ney {
						continue
					}
					for ei := i - 1; ei <= i; ei++ {
						if ei < 0 || ei >= nex {
							continue
						}
						e := g.ElemIndex(ei, ej, ek)
						em := elemMat[e]
						if em == nil {
							continue
						}
						a := vtkOffset[i-ei][j-ej][k-ek]
						// Scatter row block a of Ke over the 8 element
						// nodes.
						for b := 0; b < 8; b++ {
							s := vtkSigns[b]
							// Node b offsets within the cell: (1+s)/2.
							obi := ei + int(s[0]+1)/2
							obj := ej + int(s[1]+1)/2
							obk := ek + int(s[2]+1)/2
							slot := slotOf[(obi-i+1)+3*(obj-j+1)+9*(obk-k+1)]
							for c := 0; c < 3; c++ {
								row := &block[c]
								kr := &em.K[3*a+c]
								row[3*int(slot)] += kr[3*b]
								row[3*int(slot)+1] += kr[3*b+1]
								row[3*int(slot)+2] += kr[3*b+2]
							}
						}
						for c := 0; c < 3; c++ {
							fn[c] += em.F[3*a+c]
						}
					}
				}
			}
			for c := 0; c < 3; c++ {
				p := rowPtr[base+c]
				for s := 0; s < nNeigh; s++ {
					nb := 3 * neigh[s]
					colIdx[p] = nb
					colIdx[p+1] = nb + 1
					colIdx[p+2] = nb + 2
					vals[p] = block[c][3*s]
					vals[p+1] = block[c][3*s+1]
					vals[p+2] = block[c][3*s+2]
					p += 3
				}
				f[base+c] = fn[c]
			}
		}
	}

	sparse.ForChunks(nn, workers, func(_, lo, hi int) { fill(lo, hi) })

	k3 := &sparse.CSR{NRows: 3 * nn, NCols: 3 * nn, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
	return &Assembled{K: k3, F: f, ActiveNode: active}, nil
}
