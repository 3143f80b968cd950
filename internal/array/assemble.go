package array

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/rom"
	"repro/internal/sparse"
)

// incidence is the node-level view of the lattice that the tile scatter
// walks. Element DoF 3s+c of a ROM is component c of its surface node s, so
// each block's dense element stiffness (Eq. 18) is an nS×nS grid of 3×3
// node tiles, and the global system is the sum of those tiles over the
// blocks sharing each node pair.
type incidence struct {
	// nS is the surface-node count per block. Problem.Validate pins
	// DummyROM's node counts to ROM's, so every block shares ROM's surface
	// node order.
	nS int
	// roms[b] is block b's model; blocks are numbered b = by·Bx + bx.
	roms []*rom.ROM
	// local lists the ROM's surface nodes in lattice order (latticeOrder);
	// block b's k-th of them is global node node[b·nS+k], and these ids
	// ascend in k.
	local, node []int32
	// Node g lies on blocks inc[ptr[g]:ptr[g+1]] (ascending block order),
	// each entry packed as b·nS+s with s the node's local index in block b.
	ptr, inc []int32
}

// newIncidence maps every block's surface nodes onto the lattice and
// inverts the map.
func newIncidence(p *Problem, lat *Lattice) *incidence {
	nS := p.ROM.Surf.Count()
	nb := p.Bx * p.By
	in := &incidence{
		nS:    nS,
		roms:  make([]*rom.ROM, nb),
		node:  make([]int32, nb*nS),
		local: latticeOrder(p.ROM),
		ptr:   make([]int32, lat.NumNodes()+1),
	}
	for by := 0; by < p.By; by++ {
		for bx := 0; bx < p.Bx; bx++ {
			b := by*p.Bx + bx
			in.roms[b] = p.ROM
			if p.IsDummy != nil && p.IsDummy(bx, by) {
				in.roms[b] = p.DummyROM
			}
			for k, s := range in.local {
				t := p.ROM.Surf.IJK[s]
				g := lat.NodeID(bx*(lat.NxN-1)+t[0], by*(lat.NyN-1)+t[1], t[2])
				in.node[b*nS+k] = g
				in.ptr[g+1]++
			}
		}
	}
	for g := range lat.NumNodes() {
		in.ptr[g+1] += in.ptr[g]
	}
	in.inc = make([]int32, in.ptr[lat.NumNodes()])
	next := slices.Clone(in.ptr[:lat.NumNodes()])
	for e, g := range in.node {
		in.inc[next[g]] = int32(e-e%nS) + in.local[e%nS]
		next[g]++
	}
	return in
}

// latticeOrder returns r's surface nodes in the order NewLattice numbers
// them: z-major, then y, x fastest. A block's lattice sites are a
// translate of its ROM's node triples, so in this order every block's
// global node ids ascend.
func latticeOrder(r *rom.ROM) []int32 {
	ijk := r.Surf.IJK
	perm := make([]int32, len(ijk))
	for s := range perm {
		perm[s] = int32(s)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		p, q := ijk[a], ijk[b]
		if c := cmp.Compare(p[2], q[2]); c != 0 {
			return c
		}
		if c := cmp.Compare(p[1], q[1]); c != 0 {
			return c
		}
		return cmp.Compare(p[0], q[0])
	})
	return perm
}

// tileRow is one distinct tile-row pattern: the column indices
// cols[off:off+n], and the number of lattice nodes the row couples to
// before the column filter.
type tileRow struct{ off, n, pairs int32 }

// scatter assembles the block tiles that couple row nodes (rowOf[g] ≥ 0) to
// column nodes (colOf[g] ≥ 0) as a BCSR matrix of nr×nc node tiles; rowOf
// must number the row nodes in ascending node order. It also returns the
// number of coupled node pairs in the full lattice, each of which the full
// assembled matrix stores as one dense tile.
//
// The symbolic pass merges the ascending node lists of a node's (at most
// four) blocks into its sorted tile row; nodes on the same blocks share
// the row, so each distinct block set is merged once. The numeric pass
// adds every block's tiles, in ascending block order, row-parallel over
// tile-balanced chunks. Each tile entry is therefore summed in the same
// order on any worker count, and the result is bitwise reproducible.
func (in *incidence) scatter(rowOf, colOf []int32, nr, nc, workers int) (*sparse.BCSR, int) {
	memo := map[[4]int32]tileRow{}
	var cols []int32
	rows := make([]tileRow, nr)
	rowNode := make([]int32, nr)
	rowPtr := make([]int32, nr+1)
	pairs := 0
	for g := range len(in.ptr) - 1 {
		inc := in.inc[in.ptr[g]:in.ptr[g+1]]
		key := [4]int32{-1, -1, -1, -1}
		for i, e := range inc {
			key[i] = e / int32(in.nS)
		}
		tr, ok := memo[key]
		if !ok {
			tr = tileRow{off: int32(len(cols))}
			var heads [4][]int32
			for i, b := range key[:len(inc)] {
				heads[i] = in.node[int(b)*in.nS : int(b+1)*in.nS]
			}
			for {
				h := int32(math.MaxInt32)
				for _, l := range heads[:len(inc)] {
					if len(l) > 0 && l[0] < h {
						h = l[0]
					}
				}
				if h == math.MaxInt32 {
					break
				}
				for i, l := range heads[:len(inc)] {
					if len(l) > 0 && l[0] == h {
						heads[i] = l[1:]
					}
				}
				tr.pairs++
				if c := colOf[h]; c >= 0 {
					cols = append(cols, c)
				}
			}
			tr.n = int32(len(cols)) - tr.off
			memo[key] = tr
		}
		pairs += int(tr.pairs)
		if row := rowOf[g]; row >= 0 {
			rows[row], rowNode[row] = tr, int32(g)
			rowPtr[row+1] = rowPtr[row] + tr.n
		}
	}
	a := &sparse.BCSR{
		NRows: sparse.BlockSize * nr, NCols: sparse.BlockSize * nc,
		BRowPtr: rowPtr, BColIdx: make([]int32, rowPtr[nr]),
		Vals: make([]float64, 9*rowPtr[nr]),
	}
	k := &tileScatter{in: in, a: a, cols: cols, rows: rows, rowNode: rowNode, colOf: colOf}
	pool := sparse.NewPool(workers)
	pool.Run(sparse.PartitionByWork(rowPtr, 0, nr, workers), k)
	pool.Close()
	a.ScalarNNZ = 9*len(a.BColIdx) - int(k.zeros.Load())
	return a, pairs
}

// tileScatter is scatter's numeric pass over a chunk of tile rows.
type tileScatter struct {
	in      *incidence
	a       *sparse.BCSR
	cols    []int32   // the distinct row patterns
	rows    []tileRow // tile row i's pattern
	rowNode []int32   // tile row i's lattice node
	colOf   []int32
	// zeros counts the tile scalars that sum to exactly zero — the entries
	// a zero-skipping scalar assembly would not store.
	zeros atomic.Int64
}

// RunRange implements sparse.Runner over tile rows [lo, hi).
func (k *tileScatter) RunRange(lo, hi int) {
	in, a := k.in, k.a
	pos := make([]int32, a.NCols/sparse.BlockSize)
	zeros := 0
	for i := lo; i < hi; i++ {
		tr := k.rows[i]
		q0 := a.BRowPtr[i]
		copy(a.BColIdx[q0:a.BRowPtr[i+1]], k.cols[tr.off:tr.off+tr.n])
		for q := q0; q < a.BRowPtr[i+1]; q++ {
			pos[a.BColIdx[q]] = q
		}
		g := k.rowNode[i]
		for _, e := range in.inc[in.ptr[g]:in.ptr[g+1]] {
			b, s := int(e)/in.nS, int(e)%in.nS
			r := in.roms[b]
			n := r.Aelem.Cols
			r0 := r.Aelem.Data[3*s*n : 3*(s+1)*n]
			for j, h := range in.node[b*in.nS : (b+1)*in.nS] {
				c := k.colOf[h]
				if c < 0 {
					continue
				}
				tile := a.Vals[9*pos[c] : 9*pos[c]+9 : 9*pos[c]+9]
				t := 3 * int(in.local[j])
				for ii := 0; ii < 3; ii++ {
					src := r0[ii*n+t : ii*n+t+3 : ii*n+t+3]
					tile[3*ii] += src[0]
					tile[3*ii+1] += src[1]
					tile[3*ii+2] += src[2]
				}
			}
		}
		for _, v := range a.Vals[9*q0 : 9*a.BRowPtr[i+1]] {
			if v == 0 {
				zeros++
			}
		}
	}
	k.zeros.Add(int64(zeros))
}

// unitLoad assembles the element loads for a unit thermal field (ΔT ≡ 1,
// Eq. 19) at the DoFs of the row nodes (rowOf[g] ≥ 0), summing each node's
// blocks in ascending order.
func (in *incidence) unitLoad(rowOf []int32, nr int) []float64 {
	f := make([]float64, 3*nr)
	for g, row := range rowOf {
		if row < 0 {
			continue
		}
		for _, e := range in.inc[in.ptr[g]:in.ptr[g+1]] {
			b, s := int(e)/in.nS, int(e)%in.nS
			be := in.roms[b].Belem
			for c := 0; c < 3; c++ {
				f[3*int(row)+c] += be[3*s+c]
			}
		}
	}
	return f
}

// assembleLoad builds the thermal load vector for the problem's per-block
// ΔT field. This is the only per-scenario assembly work left once the matrix
// comes from a shared Assembly: O(blocks·n) scalar accumulation, no matrix
// scatter. Serial — it is orders of magnitude cheaper than the stiffness
// pass.
func assembleLoad(p *Problem, lat *Lattice) []float64 {
	f := make([]float64, lat.NumDoFs())
	for by := 0; by < p.By; by++ {
		for bx := 0; bx < p.Bx; bx++ {
			r := p.ROM
			if p.IsDummy != nil && p.IsDummy(bx, by) {
				r = p.DummyROM
			}
			dmap := lat.BlockDoFMap(r, bx, by)
			dt := p.blockDeltaT(bx, by)
			for i := 0; i < r.N; i++ {
				f[dmap[i]] += dt * r.Belem[i]
			}
		}
	}
	return f
}
