package array

import (
	"cmp"
	"math"
	"slices"

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

// twoEndedOrder numbers the free nodes (freeOf[id] ≥ 0) in the order
// factors of A_ff eliminate them, overwriting freeOf: the nodes are cut at
// the block line nearest the middle of the lattice's longer side; the half
// below the line is numbered by (line coordinate, z, other coordinate)
// ascending and the half on and above it after it, by the same key
// descending, so both halves end at the cut. The two halves of the factor
// then depend on each other only through the nodes on the line, and its
// triangular sweeps run them at once (sparse.LevelSchedule).
func twoEndedOrder(lat *Lattice, freeOf []int32) {
	// The keys are lattice coordinates, so walking the lattice sites in key
	// order numbers the nodes without a sort.
	nl, no, cut := lat.GX, lat.GY, (lat.Bx/2)*(lat.NxN-1)
	at := func(l, z, o int) int32 { return lat.NodeID(l, o, z) }
	if lat.By > lat.Bx {
		nl, no, cut = lat.GY, lat.GX, (lat.By/2)*(lat.NyN-1)
		at = func(l, z, o int) int32 { return lat.NodeID(o, l, z) }
	}
	next := int32(0)
	number := func(l, z, o int) {
		if id := at(l, z, o); id >= 0 && freeOf[id] >= 0 {
			freeOf[id] = next
			next++
		}
	}
	for l := 0; l < cut; l++ {
		for z := 0; z < lat.GZ; z++ {
			for o := 0; o < no; o++ {
				number(l, z, o)
			}
		}
	}
	for l := nl - 1; l >= cut; l-- {
		for z := lat.GZ - 1; z >= 0; z-- {
			for o := no - 1; o >= 0; o-- {
				number(l, z, o)
			}
		}
	}
}

// tileRow is one distinct tile-row pattern: coupled[off:off+n], the
// lattice nodes the row couples to that pass the column filter, and the
// number of lattice nodes it couples to before the filter.
type tileRow struct{ off, n, pairs int32 }

// coupling is one node of a tile row and its position in the row's
// unfiltered node list.
type coupling struct{ node, at int32 }

// rowClass is a row node's blocks in ascending order, each as its model and
// the node's surface index on it. The class fixes where the blocks sit
// around the node, so two nodes of one class reach the same sequence of
// (model, row surface index, column surface index) terms at each position
// of their unfiltered node lists: their tiles there are sums of the same
// ROM entries in the same order, bitwise equal.
type rowClass [4]struct {
	r *rom.ROM
	s int32
}

// scatter assembles the block tiles that couple row nodes (rowOf[g] ≥ 0) to
// column nodes (colOf[g] ≥ 0) as a BCSR matrix of nr×nc node tiles, each
// row's tiles sorted by column number; either numbering may follow any
// node order. With sym (rowOf and colOf the same numbering) it keeps only
// a row's couplings whose column number is at least its row number, as a
// Sym BCSR: every element stiffness is symmetric, and tile (h, g) sums the
// transposes of tile (g, h)'s terms in the same block order, so the dropped
// triangle is bitwise the transpose of the kept one. It also returns the
// number of coupled node pairs in the full lattice, each of which the full
// assembled matrix stores as one dense tile.
//
// The symbolic pass merges the ascending node lists of a node's (at most
// four) blocks into its tile row and sorts it by column number; nodes on
// the same blocks share the row, so each distinct block set is merged and
// sorted once, and rowPtr is a prefix sum of the rows' kept counts. The numeric pass
// builds the tile dictionary: a kept tile (g, h) is in.tile(g, h), whose
// value is fixed by its row node's class and h's position in the row
// (rowClass), so each (class, position) that some stored tile reaches is
// summed once — every block's term in ascending block order, from zero, as
// a tile-by-tile scatter adds them — and interned, and every other tile of
// the class at that position shares its entry. Serial, and bitwise
// reproducible.
func (in *incidence) scatter(rowOf, colOf []int32, nr, nc int, sym bool) (*sparse.BCSR, int) {
	rowOfBlocks := map[[4]int32]tileRow{}
	var coupled []coupling
	byCol := func(a, b coupling) int { return cmp.Compare(colOf[a.node], colOf[b.node]) }
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
		tr, ok := rowOfBlocks[key]
		if !ok {
			tr = tileRow{off: int32(len(coupled))}
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
				if colOf[h] >= 0 {
					coupled = append(coupled, coupling{h, tr.pairs})
				}
				tr.pairs++
			}
			tr.n = int32(len(coupled)) - tr.off
			// Every node on these blocks shares the row: sort it by
			// column number once.
			slices.SortFunc(coupled[tr.off:], byCol)
			rowOfBlocks[key] = tr
		}
		pairs += int(tr.pairs)
		if row := rowOf[g]; row >= 0 {
			if sym {
				// The row's columns ascend: drop those left of the diagonal.
				k, _ := slices.BinarySearchFunc(coupled[tr.off:tr.off+tr.n], row,
					func(c coupling, row int32) int { return cmp.Compare(colOf[c.node], row) })
				tr.off, tr.n = tr.off+int32(k), tr.n-int32(k)
			}
			rows[row], rowNode[row] = tr, int32(g)
			rowPtr[row+1] = tr.n
		}
	}
	for i := range nr {
		rowPtr[i+1] += rowPtr[i]
	}

	// Each row's class owns a run of slots, one per position of its
	// unfiltered list: base[i]+at is the slot of row i's tile at position at.
	classes := map[rowClass]int32{}
	base := make([]int32, nr)
	nSlots := int32(0)
	for i, tr := range rows {
		c := in.classOf(rowNode[i])
		s, ok := classes[c]
		if !ok {
			s = nSlots
			classes[c] = s
			nSlots += tr.pairs
		}
		base[i] = s
	}
	// Number the slots the stored tiles reach in first-reach order, and
	// give each stored tile its slot's number for now.
	ord := make([]int32, nSlots)
	for s := range ord {
		ord[s] = -1
	}
	colIdx := make([]int32, rowPtr[nr])
	valIdx := make([]int32, rowPtr[nr])
	reached := int32(0)
	for i, tr := range rows {
		q := rowPtr[i]
		for _, cp := range coupled[tr.off : tr.off+tr.n] {
			o := &ord[base[i]+cp.at]
			if *o < 0 {
				*o = reached
				reached++
			}
			colIdx[q], valIdx[q] = colOf[cp.node], *o
			q++
		}
	}
	// Sum each reached slot once, at its first reach: the same sweep meets
	// the numbers in the order it gave them out.
	vals := make([]float64, 9*reached)
	nz := make([]int, reached) // each slot's scalars that are not exactly zero
	next, nnz := int32(0), 0
	for i, tr := range rows {
		g, q := rowNode[i], rowPtr[i]
		for _, cp := range coupled[tr.off : tr.off+tr.n] {
			o := valIdx[q]
			q++
			if o == next {
				t := (*[9]float64)(vals[9*o:])
				*t = in.tile(g, cp.node)
				for _, v := range t {
					if v != 0 {
						nz[o]++
					}
				}
				next++
			}
			// ScalarNNZ counts the logical matrix's tile scalars that do not
			// sum to exactly zero — the entries a zero-skipping scalar
			// assembly would store — the mirror of a Sym off-diagonal tile
			// included.
			if sym && cp.node != g {
				nnz += 2 * nz[o]
			} else {
				nnz += nz[o]
			}
		}
	}
	entry, dict := sparse.InternTiles(vals)
	for q, o := range valIdx {
		valIdx[q] = entry[o]
	}
	a := sparse.NewBCSRTiles(sparse.BlockSize*nr, sparse.BlockSize*nc, rowPtr, colIdx, valIdx, dict, sym)
	a.ScalarNNZ = nnz
	return a, pairs
}

// classOf returns node g's rowClass.
func (in *incidence) classOf(g int32) rowClass {
	var c rowClass
	for i, e := range in.inc[in.ptr[g]:in.ptr[g+1]] {
		c[i].r, c[i].s = in.roms[int(e)/in.nS], e%int32(in.nS)
	}
	return c
}

// tile sums the 3×3 coupling of node g's DoFs to node h's over the blocks
// the two share, in ascending block order from zero — bitwise the tile a
// block-by-block scatter accumulates.
func (in *incidence) tile(g, h int32) [9]float64 {
	var t [9]float64
	hs := in.inc[in.ptr[h]:in.ptr[h+1]]
	for _, e := range in.inc[in.ptr[g]:in.ptr[g+1]] {
		b := int(e) / in.nS
		for _, f := range hs {
			if int(f)/in.nS != b {
				continue
			}
			a := in.roms[b].Aelem
			n := a.Cols
			s, j := int(e)%in.nS, int(f)%in.nS
			for ii := 0; ii < 3; ii++ {
				src := a.Data[(3*s+ii)*n+3*j : (3*s+ii)*n+3*j+3]
				t[3*ii] += src[0]
				t[3*ii+1] += src[1]
				t[3*ii+2] += src[2]
			}
		}
	}
	return t
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
