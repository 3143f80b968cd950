package sparse

import (
	"fmt"
	"math"
	"slices"
)

// BlockSize is the tile edge of the blocked storage formats. The global
// stage's DoFs are 3-component node displacements, so every reduced global
// matrix (and its IC0 factor) has natural 3×3 node-block sparsity; the
// blocked kernels exploit it with one index per tile instead of one per
// scalar (~1/3 the index traffic) and fully unrolled dense 3×3 micro-kernels
// the compiler can keep in registers.
const BlockSize = 3

// stripeTiles is the tile budget of one mat-vec stripe: the product runs
// over contiguous block-row stripes of about this many stored tiles, fixed
// by the matrix alone, so its result does not depend on how many workers
// share the stripes. It cuts the served 12×12 A_ff into 9 stripes, whose
// spill slabs reach 2 273 block rows (55 kB). On a 2-vCPU host that
// product took 1.25, 1.08 and 0.99 ms on two workers (medians of 6) at
// budgets of 4 096, 8 192 and 16 384 tiles: smaller stripes spill more.
const stripeTiles = 16384

// BCSR is a block-compressed sparse row matrix with dense 3×3 tiles: the
// scalar CSR layout lifted to block granularity. Scalar entries absent from
// the CSR pattern but inside a stored tile are explicit zeros — they change
// nothing numerically (0·x terms) and buy the dense inner loop.
//
// The tile values are held as a dictionary: Vals keeps each distinct tile
// once and ValIdx maps every stored tile to its entry — the value-index
// compression of CSR-VI (Kourtis, Goumas & Koziris, CF 2008). A reduced
// global matrix repeats one unit cell's tiles over the whole lattice, so
// its dictionary stays the same size however large the lattice grows.
//
// A symmetric matrix (Sym) stores only its upper block triangle: each block
// row holds its diagonal tile first, then the tiles right of the diagonal,
// and tile (J, I) of the logical matrix is the transpose of stored tile
// (I, J). The product applies every off-diagonal tile twice per read —
// T·x_J into row I and Tᵀ·x_I into row J — over fixed block-row stripes
// (stripeTiles): a stripe adds the transposed contributions that land in
// its own rows straight into dst and those past its rows into its own
// spill slab, and the slabs are folded into dst in stripe order. Every
// worker count, serial included, therefore computes the same sums in the
// same order. Any other matrix stores both triangles.
//
// A BCSR is immutable after construction and safe to share across
// concurrent products (each caller brings its own spill slab).
type BCSR struct {
	NRows, NCols int // scalar dimensions (multiples of BlockSize)
	// BRowPtr bounds each block row's tiles (len NRows/3+1).
	BRowPtr []int32
	// BColIdx is the block-column index of each tile, ascending per row.
	BColIdx []int32
	// ValIdx is the dictionary entry of each tile: stored tile p's values
	// are Vals[9·ValIdx[p] : 9·ValIdx[p]+9] (Tile).
	ValIdx []int32
	// Vals is the tile dictionary, 9 scalars per entry, row-major.
	Vals []float64
	// ScalarNNZ is the stored-entry count of the full logical matrix (both
	// triangles, also under Sym); the fill ratio ScalarNNZ/(9·tiles)
	// measures how much zero padding blocking cost.
	ScalarNNZ int
	// Sym marks the upper-triangle layout of a symmetric matrix.
	Sym bool

	// The product's layout, derived from the pattern at construction:
	// stripes bounds the stripes in block rows; stripe s's spill slab is
	// the slots [spillPtr[s], spillPtr[s+1]) of a SpillLen() scratch, slot
	// k folding into block row spillRows[k]. The tiles of a block row whose
	// columns lie past its stripe end the row, as its columns ascend;
	// slot[slotPtr[i]:slotPtr[i+1]] holds the slots of block row i's. Only
	// Sym matrices spill.
	stripes, spillPtr, spillRows, slotPtr, slot []int32
}

// NBRows returns the number of block rows.
func (m *BCSR) NBRows() int { return m.NRows / BlockSize }

// NNZBlocks returns the number of stored tiles.
func (m *BCSR) NNZBlocks() int { return len(m.BColIdx) }

// Tile returns stored tile p's 9 values, row-major, aliasing the dictionary.
func (m *BCSR) Tile(p int) []float64 {
	e := 9 * int(m.ValIdx[p])
	return m.Vals[e : e+9 : e+9]
}

// Entries returns the number of dictionary entries.
func (m *BCSR) Entries() int { return len(m.Vals) / 9 }

// MemoryBytes estimates the storage footprint in bytes: the dictionary plus
// the per-tile index and pattern arrays.
func (m *BCSR) MemoryBytes() int64 {
	idx := len(m.BRowPtr) + len(m.BColIdx) + len(m.ValIdx) + len(m.stripes) + len(m.spillPtr) + len(m.spillRows) + len(m.slotPtr) + len(m.slot)
	return int64(idx)*4 + int64(len(m.Vals))*8
}

// SpillLen returns the length of the spill slab a product of m needs
// (BlockMatVec.Spill); zero unless m is Sym.
func (m *BCSR) SpillLen() int { return BlockSize * len(m.spillRows) }

// Stripes returns the block-row bounds of the product's stripes, the chunks
// a pooled BlockMatVec runs on. The slice is shared; do not modify it.
func (m *BCSR) Stripes() []int32 { return m.stripes }

// NewBCSR blocks a scalar CSR matrix into 3×3 tiles. Both dimensions must be
// multiples of BlockSize; entries are grouped by their block coordinates and
// missing tile entries are zero-filled. A square matrix whose tiles are
// bitwise symmetric is stored Sym, as its upper block triangle.
func NewBCSR(m *CSR) (*BCSR, error) {
	if m.NRows%BlockSize != 0 || m.NCols%BlockSize != 0 {
		return nil, fmt.Errorf("sparse: BCSR requires dimensions divisible by %d, got %d×%d", BlockSize, m.NRows, m.NCols)
	}
	ptr, idx, vals := tileRows(m.NRows/BlockSize, m.NCols/BlockSize, m.RowPtr, m.ColIdx, m.Vals)
	sym := m.NRows == m.NCols && tilesSymmetric(ptr, idx, vals)
	if sym {
		ptr, idx, vals = upperTiles(ptr, idx, vals)
	}
	valIdx, dict := InternTiles(vals)
	b := NewBCSRTiles(m.NRows, m.NCols, ptr, idx, valIdx, dict, sym)
	b.ScalarNNZ = m.NNZ()
	return b, nil
}

// NewBCSRTiles wraps tile arrays already in BCSR form — ascending columns
// per block row and, when sym, only the upper block triangle, each tile's
// values at its valIdx entry of the vals dictionary — and derives the
// product's stripe layout from the pattern. ScalarNNZ is left for the
// caller to set.
func NewBCSRTiles(nrows, ncols int, rowPtr, colIdx, valIdx []int32, vals []float64, sym bool) *BCSR {
	m := &BCSR{NRows: nrows, NCols: ncols, BRowPtr: rowPtr, BColIdx: colIdx, ValIdx: valIdx, Vals: vals, Sym: sym}
	m.stripe(stripeTiles)
	return m
}

// InternTiles folds tile values stored 9 per tile into a dictionary of the
// distinct tiles, in first-seen order, and the entry of each tile. Tiles are
// keyed by their raw bits (math.Float64bits), so −0 and +0, and NaNs of
// different payloads, are different entries: a tile read back is bitwise
// the tile given.
func InternTiles(vals []float64) (valIdx []int32, dict []float64) {
	valIdx = make([]int32, len(vals)/9)
	ids := make(map[[9]uint64]int32, len(valIdx))
	dict = make([]float64, 0, len(vals))
	for p := range valIdx {
		t := vals[9*p : 9*p+9]
		var key [9]uint64
		for i, v := range t {
			key[i] = math.Float64bits(v)
		}
		id, ok := ids[key]
		if !ok {
			id = int32(len(dict) / 9)
			ids[key] = id
			dict = append(dict, t...)
		}
		valIdx[p] = id
	}
	return valIdx, slices.Clone(dict)
}

// stripe lays the product out over stripes of about budget tiles each and,
// under Sym, numbers each stripe's spill slots: the distinct block rows past
// the stripe that its tiles reach, in first-reach order.
func (m *BCSR) stripe(budget int) {
	nb := m.NBRows()
	parts := (len(m.BColIdx) + budget - 1) / budget
	m.stripes = PartitionByWork(m.BRowPtr, 0, nb, max(parts, 1))
	if !m.Sym {
		return
	}
	// A row's tiles past its stripe end the row, as its columns ascend.
	m.slotPtr = make([]int32, nb+1)
	for s := 0; s+1 < len(m.stripes); s++ {
		for br, hi := m.stripes[s], m.stripes[s+1]; br < hi; br++ {
			cols := m.BColIdx[m.BRowPtr[br]:m.BRowPtr[br+1]]
			k, _ := slices.BinarySearch(cols, hi)
			m.slotPtr[br+1] = m.slotPtr[br] + int32(len(cols)-k)
		}
	}
	m.slot = make([]int32, m.slotPtr[nb])
	m.spillPtr = make([]int32, 1, len(m.stripes)+1)
	m.spillRows = nil
	seen := make([]int32, nb)
	slotOf := make([]int32, nb)
	for i := range seen {
		seen[i] = -1
	}
	for s := 0; s+1 < len(m.stripes); s++ {
		for br := m.stripes[s]; br < m.stripes[s+1]; br++ {
			q, end := m.slotPtr[br], m.slotPtr[br+1]
			for _, c := range m.BColIdx[m.BRowPtr[br+1]-(end-q) : m.BRowPtr[br+1]] {
				if seen[c] != int32(s) {
					seen[c], slotOf[c] = int32(s), int32(len(m.spillRows))
					m.spillRows = append(m.spillRows, c)
				}
				m.slot[q] = slotOf[c]
				q++
			}
		}
		m.spillPtr = append(m.spillPtr, int32(len(m.spillRows)))
	}
}

// tilesSymmetric reports whether the square tile arrays hold a bitwise
// symmetric matrix: every tile (I, J) has a mirror (J, I) equal to its
// transpose. Row J's tiles left of the diagonal are met in ascending I as
// the sweep visits rows I, so one cursor per row matches them in one pass.
func tilesSymmetric(ptr, idx []int32, vals []float64) bool {
	nb := len(ptr) - 1
	next := slices.Clone(ptr[:nb])
	// mirror reports whether tile q is bitwise the transpose of tile p.
	mirror := func(p, q int32) bool {
		for i := int32(0); i < BlockSize; i++ {
			for j := int32(0); j < BlockSize; j++ {
				if math.Float64bits(vals[9*p+BlockSize*i+j]) != math.Float64bits(vals[9*q+BlockSize*j+i]) {
					return false
				}
			}
		}
		return true
	}
	for i := int32(0); i < int32(nb); i++ {
		for p := ptr[i]; p < ptr[i+1]; p++ {
			j := idx[p]
			switch {
			case j == i:
				if !mirror(p, p) {
					return false
				}
			case j > i:
				q := next[j]
				if q == ptr[j+1] || idx[q] != i || !mirror(p, q) {
					return false
				}
				next[j] = q + 1
			}
		}
	}
	for j := int32(0); j < int32(nb); j++ {
		if q := next[j]; q < ptr[j+1] && idx[q] < j {
			return false // a tile left of the diagonal without a mirror
		}
	}
	return true
}

// upperTiles keeps the tiles on and right of the block diagonal.
func upperTiles(ptr, idx []int32, vals []float64) (uPtr, uIdx []int32, uVals []float64) {
	nb := len(ptr) - 1
	uPtr = make([]int32, nb+1)
	for i := 0; i < nb; i++ {
		lo := ptr[i]
		for lo < ptr[i+1] && int(idx[lo]) < i {
			lo++
		}
		uPtr[i+1] = uPtr[i] + ptr[i+1] - lo
		uIdx = append(uIdx, idx[lo:ptr[i+1]]...)
		uVals = append(uVals, vals[9*lo:9*ptr[i+1]]...)
	}
	return uPtr, uIdx, uVals
}

// Lower returns the strict lower block triangle of a Sym matrix as the
// transpose of its stored pattern: block row J's entries q ∈ [ptr[J],
// ptr[J+1]) are the rows I = rows[q] < J, ascending, whose stored tile
// (I, J) is tile number tiles[q] (its values, read transposed, are tile
// (J, I)). It returns empty rows for a matrix that is not Sym.
func (m *BCSR) Lower() (ptr, rows, tiles []int32) {
	nb := m.NBRows()
	ptr = make([]int32, nb+1)
	if !m.Sym {
		return ptr, nil, nil
	}
	for i := 0; i < nb; i++ {
		for p := m.BRowPtr[i]; p < m.BRowPtr[i+1]; p++ {
			if j := m.BColIdx[p]; int(j) > i {
				ptr[j+1]++
			}
		}
	}
	for j := 0; j < nb; j++ {
		ptr[j+1] += ptr[j]
	}
	rows = make([]int32, ptr[nb])
	tiles = make([]int32, ptr[nb])
	next := slices.Clone(ptr[:nb])
	for i := 0; i < nb; i++ {
		for p := m.BRowPtr[i]; p < m.BRowPtr[i+1]; p++ {
			if j := m.BColIdx[p]; int(j) > i {
				rows[next[j]], tiles[next[j]] = int32(i), p
				next[j]++
			}
		}
	}
	return ptr, rows, tiles
}

// Full returns m with both triangles stored: a Sym matrix's tiles left of
// the diagonal are the transposes of their mirrors, and any other matrix is
// returned as is.
func (m *BCSR) Full() *BCSR {
	if !m.Sym {
		return m
	}
	lptr, lrows, ltiles := m.Lower()
	nb := m.NBRows()
	ptr := make([]int32, nb+1)
	idx := make([]int32, 0, len(lrows)+len(m.BColIdx))
	vals := make([]float64, 0, 9*cap(idx))
	for j := 0; j < nb; j++ {
		for q := lptr[j]; q < lptr[j+1]; q++ {
			t := m.Tile(int(ltiles[q]))
			idx = append(idx, lrows[q])
			vals = append(vals, t[0], t[3], t[6], t[1], t[4], t[7], t[2], t[5], t[8])
		}
		for p := m.BRowPtr[j]; p < m.BRowPtr[j+1]; p++ {
			idx = append(idx, m.BColIdx[p])
			vals = append(vals, m.Tile(int(p))...)
		}
		ptr[j+1] = int32(len(idx))
	}
	valIdx, dict := InternTiles(vals)
	f := NewBCSRTiles(m.NRows, m.NCols, ptr, idx, valIdx, dict, false)
	f.ScalarNNZ = m.ScalarNNZ
	return f
}

// ToCSR expands the tiles — both triangles of a Sym matrix — into a scalar
// CSR matrix, dropping exact zeros: the tile padding, and any zero the
// source CSR stored. On a source without stored zeros, ToCSR(NewBCSR(m))
// reproduces m bitwise.
func (m *BCSR) ToCSR() *CSR {
	if m.Sym {
		return m.Full().ToCSR()
	}
	nbr := m.NBRows()
	rowPtr := make([]int32, m.NRows+1)
	for br := 0; br < nbr; br++ {
		for p := m.BRowPtr[br]; p < m.BRowPtr[br+1]; p++ {
			for k, v := range m.Tile(int(p)) {
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
				t := m.Tile(int(p))
				for j := int32(0); j < BlockSize; j++ {
					if v := t[int32(BlockSize*i)+j]; v != 0 {
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
// the dictionary), or nil when the block row stores none.
func (m *BCSR) DiagTile(br int) []float64 {
	lo, hi := m.BRowPtr[br], m.BRowPtr[br+1]
	k, ok := slices.BinarySearch(m.BColIdx[lo:hi], int32(br))
	if !ok {
		return nil
	}
	return m.Tile(int(lo) + k)
}

// MulVec computes dst = m·x with the blocked kernel over m's stripes. dst
// must not alias x. A Sym product draws its spill slab per call; hot loops
// hold a BlockMatVec with its own slab instead.
func (m *BCSR) MulVec(dst, x []float64) {
	if len(x) != m.NCols || len(dst) != m.NRows {
		panic(fmt.Sprintf("sparse: BCSR MulVec dimension mismatch: matrix %d×%d, x %d, dst %d",
			m.NRows, m.NCols, len(x), len(dst)))
	}
	spill := make([]float64, m.SpillLen())
	m.mulVecRange(dst, x, spill, 0, m.NBRows())
	m.fold(dst, spill)
}

// mulVecRange runs the product over block rows [lo, hi): every row of a
// full matrix, and every stripe of a Sym matrix, is computed by the same
// kernel however the rows are dispatched, so the serial and pooled paths
// are bitwise identical. Under Sym, lo and hi must be stripe bounds.
//
//stressvet:noalloc
func (m *BCSR) mulVecRange(dst, x, spill []float64, lo, hi int) {
	if !m.Sym {
		m.fullRows(dst, x, lo, hi)
		return
	}
	s, ok := slices.BinarySearch(m.stripes, int32(lo))
	if !ok && lo < hi {
		panic("sparse: BCSR Sym product range does not start on a stripe bound")
	}
	for ; s+1 < len(m.stripes) && int(m.stripes[s]) < hi; s++ {
		m.symStripe(dst, x, spill, s)
	}
}

// fullRows is the mat-vec kernel of a full matrix over block rows [lo, hi):
// one tile GEMV per stored tile, three running sums per block row.
//
//stressvet:noalloc
func (m *BCSR) fullRows(dst, x []float64, lo, hi int) {
	vals := m.Vals
	for br := lo; br < hi; br++ {
		var s0, s1, s2 float64
		p, end := int(m.BRowPtr[br]), int(m.BRowPtr[br+1])
		ents := m.ValIdx[p:end]
		for k, c32 := range m.BColIdx[p:end] {
			c := BlockSize * uint(uint32(c32))
			e := 9 * uint(uint32(ents[k]))
			t := (*[9]float64)(vals[e : e+9])
			y := (*[3]float64)(x[c : c+3])
			x0, x1, x2 := y[0], y[1], y[2]
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

// symStripe is the Sym kernel over stripe s. Block row I starts from the
// transposed contributions earlier rows of the stripe left in dst, adds its
// diagonal tile and then each tile T right of it — T·x_J to itself, and
// Tᵀ·x_I to row J: in dst when J lies in the stripe, in the stripe's slab
// when it lies past it.
//
//stressvet:noalloc
//stressvet:bce 17
func (m *BCSR) symStripe(dst, x, spill []float64, s int) {
	// Two-element windows of the pointer arrays cost one check each.
	st, sp := m.stripes[s:s+2], m.spillPtr[s:s+2]
	lo, hi := int(st[0]), int(st[1])
	clear(dst[BlockSize*lo : BlockSize*hi])
	clear(spill[BlockSize*sp[0] : BlockSize*sp[1]])
	vals := m.Vals
	// x and dst have the matrix's one dimension. Capped at it, a column
	// block that x holds is one dst holds too, and the unsigned index
	// arithmetic below cannot wrap: each tile read keeps a single check for
	// its dictionary entry, its x block and, when it spills, its slot.
	dst = dst[:len(dst):len(dst)]
	x = x[:len(dst):len(dst)]
	for br := lo; br < hi; br++ {
		// The row's columns and dictionary entries advance together; its
		// last len(slots) tiles spill.
		rp, qp := m.BRowPtr[br:br+2], m.slotPtr[br:br+2]
		cols, ents := m.BColIdx[rp[0]:rp[1]], m.ValIdx[rp[0]:rp[1]]
		slots := m.slot[qp[0]:qp[1]]
		xi := (*[3]float64)(x[BlockSize*br:])
		d := (*[3]float64)(dst[BlockSize*br:])
		x0, x1, x2 := xi[0], xi[1], xi[2]
		s0, s1, s2 := d[0], d[1], d[2]
		if len(cols) > 0 && int(cols[0]) == br {
			t := (*[9]float64)(vals[9*int(ents[0]):])
			s0 += t[0]*x0 + t[1]*x1 + t[2]*x2
			s1 += t[3]*x0 + t[4]*x1 + t[5]*x2
			s2 += t[6]*x0 + t[7]*x1 + t[8]*x2
			cols, ents = cols[1:], ents[1:]
		}
		ents = ents[:len(cols)]
		in := len(cols) - len(slots)
		for k, c32 := range cols {
			c := BlockSize * uint(uint32(c32))
			e := 9 * uint(uint32(ents[k]))
			t := (*[9]float64)(vals[e : e+9])
			y := (*[3]float64)(x[c : c+3])
			s0 += t[0]*y[0] + t[1]*y[1] + t[2]*y[2]
			s1 += t[3]*y[0] + t[4]*y[1] + t[5]*y[2]
			s2 += t[6]*y[0] + t[7]*y[1] + t[8]*y[2]
			var o *[3]float64
			if k < in {
				o = (*[3]float64)(dst[c : c+3])
			} else {
				q := BlockSize * uint(uint32(slots[k-in]))
				o = (*[3]float64)(spill[q : q+3])
			}
			o[0] += t[0]*x0 + t[3]*x1 + t[6]*x2
			o[1] += t[1]*x0 + t[4]*x1 + t[7]*x2
			o[2] += t[2]*x0 + t[5]*x1 + t[8]*x2
		}
		d[0], d[1], d[2] = s0, s1, s2
	}
}

// fold adds the spill slabs into dst, slot by slot in stripe order.
//
//stressvet:noalloc
func (m *BCSR) fold(dst, spill []float64) {
	for k, j := range m.spillRows {
		d := (*[3]float64)(dst[BlockSize*j : BlockSize*j+3])
		v := (*[3]float64)(spill[BlockSize*k : BlockSize*k+3])
		d[0] += v[0]
		d[1] += v[1]
		d[2] += v[2]
	}
}

// MulVecPar computes dst = m·x with m's stripes shared by at most nworkers
// goroutines through ForEach, bitwise equal to MulVec. Falls back to the
// serial kernel for small matrices.
func (m *BCSR) MulVecPar(dst, x []float64, nworkers int) {
	if nworkers <= 1 || m.NRows < MinParRows {
		m.MulVec(dst, x)
		return
	}
	op := &BlockMatVec{M: m, Dst: dst, X: x, Spill: make([]float64, m.SpillLen())}
	st := m.stripes
	ForEach(len(st)-1, nworkers, func(_, s int) { op.RunRange(int(st[s]), int(st[s+1])) })
	op.Fold()
}

// BlockMatVec is a pooled blocked matrix-vector product dst = M·x: Pool.Run
// it over M.Stripes(), then call Fold. Like MatVec, it lives in a reusable
// workspace so dispatch never allocates; Spill is the caller-owned slab of
// M.SpillLen() scalars a Sym product needs.
type BlockMatVec struct {
	M             *BCSR
	Dst, X, Spill []float64
}

// RunRange implements Runner over block rows; a Sym M must be given whole
// stripes.
//
//stressvet:noalloc
func (o *BlockMatVec) RunRange(lo, hi int) {
	o.M.mulVecRange(o.Dst, o.X, o.Spill, lo, hi)
}

// Fold finishes a Sym product once every stripe has run, adding the spill
// slabs into Dst in stripe order (a no-op for a full matrix).
//
//stressvet:noalloc
func (o *BlockMatVec) Fold() { o.M.fold(o.Dst, o.Spill) }
