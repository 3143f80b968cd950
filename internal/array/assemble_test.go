package array

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/rom"
	"repro/internal/sparse"
)

var servedROMs struct {
	once       sync.Once
	tsv, dummy *rom.ROM
	err        error
}

// servedROM returns the (5,5,5)-node coarse unit cell at pitch 15 that
// serving builds by default (withVia) or its pure-silicon dummy, built once
// per test binary.
func servedROM(tb testing.TB, withVia bool) *rom.ROM {
	tb.Helper()
	servedROMs.once.Do(func() {
		build := func(via bool) *rom.ROM {
			s := rom.PaperSpec(15, mesh.CoarseResolution())
			s.Nodes = [3]int{5, 5, 5}
			s.WithVia = via
			r, err := rom.Build(s, 0)
			if err != nil && servedROMs.err == nil {
				servedROMs.err = err
			}
			return r
		}
		servedROMs.tsv, servedROMs.dummy = build(true), build(false)
	})
	if servedROMs.err != nil {
		tb.Fatal(servedROMs.err)
	}
	if withVia {
		return servedROMs.tsv
	}
	return servedROMs.dummy
}

// referenceAssembly is the three-pass pipeline the tile scatter replaced:
// a duplicate-laden full-lattice CSR scatter, per-row sort-and-sum
// compaction, Dirichlet reduction through triplets, then re-tiling. It
// returns the reduced system as NewAssembly lays it out (Red.Aff nil, the
// tiles separate; both nil when every DoF is constrained), its free DoFs
// renumbered to follow freeIdx, and the full matrix's stored-entry count.
// It fails unless freeIdx numbers exactly the reduction's free DoFs.
func referenceAssembly(t *testing.T, p *Problem, workers int, freeIdx []int32) (*fem.Reduced, *sparse.BCSR, int) {
	t.Helper()
	lat := NewLattice(p.Bx, p.By, p.ROM.Spec.Nodes, p.ROM.Spec.Geom.Pitch, p.ROM.Spec.Geom.Height)
	k, f := referenceGlobal(p, lat, workers)
	isBC := make([]bool, lat.NumDoFs())
	for id := 0; id < lat.NumNodes(); id++ {
		fixed := lat.OnTopOrBottom(id)
		if p.BC == PrescribedBoundary {
			fixed = lat.OnOuterBoundary(id)
		}
		isBC[3*id], isBC[3*id+1], isBC[3*id+2] = fixed, fixed, fixed
	}
	if !slices.Contains(isBC, false) {
		return nil, nil, k.NNZ()
	}
	red, err := fem.Reduce(k, f, isBC)
	if err != nil {
		t.Fatal(err)
	}
	// to[k] is the index freeIdx gives the reduction's free DoF k.
	at := make(map[int32]int32, len(freeIdx))
	for fi, d := range freeIdx {
		at[d] = int32(fi)
	}
	to := make([]int32, len(red.FreeIdx))
	for k, d := range red.FreeIdx {
		fi, ok := at[d]
		if !ok || len(freeIdx) != len(red.FreeIdx) {
			t.Fatal("free index maps differ")
		}
		to[k] = fi
	}
	bcs := make([]int32, len(red.BCIdx))
	for k := range bcs {
		bcs[k] = int32(k)
	}
	n := len(to)
	red.Aff = red.Aff.Extract(to, to, n, n)
	red.Afb = red.Afb.Extract(to, bcs, n, len(bcs))
	bf := make([]float64, n)
	for k, v := range red.Bf {
		bf[to[k]] = v
	}
	red.Bf, red.FreeIdx = bf, freeIdx
	aff, err := sparse.NewBCSR(red.Aff)
	if err != nil {
		t.Fatal(err)
	}
	red.Aff = nil
	return red, aff, k.NNZ()
}

// referenceGlobal scatters every block's dense element stiffness and unit
// load into the full-lattice system: raw rows pre-counted, block-parallel
// appends through atomic row cursors, then sparse.CompactRows.
func referenceGlobal(p *Problem, lat *Lattice, workers int) (*sparse.CSR, []float64) {
	ndof := lat.NumDoFs()
	blockROM := func(bx, by int) *rom.ROM {
		if p.IsDummy != nil && p.IsDummy(bx, by) {
			return p.DummyROM
		}
		return p.ROM
	}
	rowCount := make([]int32, ndof+1)
	for by := 0; by < p.By; by++ {
		for bx := 0; bx < p.Bx; bx++ {
			r := blockROM(bx, by)
			for _, gi := range lat.BlockDoFMap(r, bx, by) {
				rowCount[gi+1] += int32(r.N)
			}
		}
	}
	for i := 0; i < ndof; i++ {
		rowCount[i+1] += rowCount[i]
	}
	colIdx := make([]int32, rowCount[ndof])
	vals := make([]float64, rowCount[ndof])
	cursor := slices.Clone(rowCount[:ndof])

	type job struct{ bx, by int }
	jobs := make(chan job, workers)
	fBufs := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fb := make([]float64, ndof)
			fBufs[w] = fb
			for jb := range jobs {
				r := blockROM(jb.bx, jb.by)
				dmap := lat.BlockDoFMap(r, jb.bx, jb.by)
				for i := 0; i < r.N; i++ {
					gi := dmap[i]
					seg := int(atomic.AddInt32(&cursor[gi], int32(r.N)) - int32(r.N))
					copy(colIdx[seg:seg+r.N], dmap)
					copy(vals[seg:seg+r.N], r.Aelem.Row(i))
					fb[gi] += r.Belem[i]
				}
			}
		}(w)
	}
	for by := 0; by < p.By; by++ {
		for bx := 0; bx < p.Bx; bx++ {
			jobs <- job{bx, by}
		}
	}
	close(jobs)
	wg.Wait()
	f := make([]float64, ndof)
	for _, fb := range fBufs {
		for i, v := range fb {
			f[i] += v
		}
	}
	raw := &sparse.CSR{NRows: ndof, NCols: ndof, RowPtr: rowCount, ColIdx: colIdx, Vals: vals}
	return raw.CompactRows(workers), f
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// TestTileScatterMatchesReference: the tile scatter reproduces the
// three-pass pipeline it replaced on every lattice shape, with and without
// dummy blocks, under both BCs. The tile pattern, the full matrix's entry
// count, the index maps and the unit load are identical; tile values agree
// to 1e-15·max|A| (only the summation order of shared-node contributions
// differs). Exact zeros — which ScalarNNZ and the scalar A_fb skip — may
// differ only where that order decides whether a cancellation is exact, so
// only at entries no larger than the value tolerance.
func TestTileScatterMatchesReference(t *testing.T) {
	r, d := servedROM(t, true), servedROM(t, false)
	ring := func(bx, by int) bool { return bx == 0 || by == 0 || bx == 4 || by == 4 }
	zero := func(mesh.Vec3) [3]float64 { return [3]float64{} }
	for _, lc := range []struct {
		bx, by  int
		isDummy func(bx, by int) bool
	}{{1, 1, nil}, {1, 5, nil}, {4, 8, nil}, {6, 6, nil}, {12, 12, nil}, {5, 5, ring}} {
		for _, bc := range []BCKind{ClampedTopBottom, PrescribedBoundary} {
			name := fmt.Sprintf("%dx%d/dummies=%v/bc=%d", lc.bx, lc.by, lc.isDummy != nil, bc)
			t.Run(name, func(t *testing.T) {
				if testing.Short() && lc.bx*lc.by > 64 {
					t.Skip("large lattice")
				}
				p := &Problem{ROM: r, DummyROM: d, IsDummy: lc.isDummy, Bx: lc.bx, By: lc.by, DeltaT: -250, BC: bc, BoundaryDisp: zero}
				asm, err := NewAssembly(p, 2)
				if err != nil {
					t.Fatal(err)
				}
				var freeIdx []int32
				if asm.Red != nil {
					freeIdx = asm.Red.FreeIdx
				}
				wantRed, want, wantNNZ := referenceAssembly(t, p, 1, freeIdx)
				if asm.NNZ != wantNNZ {
					t.Errorf("NNZ = %d, want %d", asm.NNZ, wantNNZ)
				}
				if asm.AllBC != (wantRed == nil) {
					t.Fatalf("AllBC = %v, want %v", asm.AllBC, wantRed == nil)
				}
				if wantRed == nil {
					return
				}
				got := asm.Blocked()
				if !got.Sym {
					t.Fatal("A_ff is not stored as its upper block triangle")
				}
				want = upperOf(want)
				if got.NRows != want.NRows || got.NCols != want.NCols ||
					!slices.Equal(got.BRowPtr, want.BRowPtr) || !slices.Equal(got.BColIdx, want.BColIdx) {
					t.Fatalf("tile pattern differs: %d×%d with %d tiles, want %d×%d with %d",
						got.NRows, got.NCols, got.NNZBlocks(), want.NRows, want.NCols, want.NNZBlocks())
				}
				tol := 1e-15 * maxAbs(want.Vals)
				nnz := 0
				for p := range got.NNZBlocks() {
					for i, v := range got.Tile(p) {
						if v != 0 && !isDiagTile(got, p) {
							nnz++ // its mirror below the diagonal
						}
						w := want.Tile(p)[i]
						if math.Abs(v-w) > tol {
							t.Fatalf("tile %d value %d = %g, want %g (tol %g)", p, i, v, w, tol)
						}
						if (v == 0) != (w == 0) && math.Abs(w) > tol {
							t.Fatalf("tile %d value %d: zero-ness differs at a non-negligible %g", p, i, w)
						}
						if v != 0 {
							nnz++
						}
					}
				}
				if got.ScalarNNZ != nnz {
					t.Errorf("ScalarNNZ = %d, but %d tile scalars are nonzero", got.ScalarNNZ, nnz)
				}
				red := asm.Red
				if !slices.Equal(red.FreeIdx, wantRed.FreeIdx) || !slices.Equal(red.BCIdx, wantRed.BCIdx) || red.NFull != wantRed.NFull {
					t.Fatal("free/BC index maps differ")
				}
				if !slices.Equal(red.Bf, wantRed.Bf) {
					t.Error("unit load b_f differs from the serial reference")
				}
				if bc == PrescribedBoundary {
					assertCSRNear(t, red.Afb, wantRed.Afb, tol)
				} else if red.Afb != nil {
					t.Error("clamped assembly keeps A_fb")
				}
			})
		}
	}
}

// upperOf returns the tiles of b on and right of the block diagonal.
func upperOf(b *sparse.BCSR) *sparse.BCSR {
	ptr := make([]int32, b.NBRows()+1)
	var idx []int32
	var vals []float64
	for i := range b.NBRows() {
		for p := b.BRowPtr[i]; p < b.BRowPtr[i+1]; p++ {
			if int(b.BColIdx[p]) >= i {
				idx = append(idx, b.BColIdx[p])
				vals = append(vals, b.Tile(int(p))...)
			}
		}
		ptr[i+1] = int32(len(idx))
	}
	valIdx, dict := sparse.InternTiles(vals)
	return sparse.NewBCSRTiles(b.NRows, b.NCols, ptr, idx, valIdx, dict, true)
}

// sameTiles reports whether a and b hold the same tile pattern and every
// stored tile reads bitwise the same, whatever their dictionaries' order.
func sameTiles(a, b *sparse.BCSR) bool {
	if a.NRows != b.NRows || a.NCols != b.NCols || a.Sym != b.Sym ||
		!slices.Equal(a.BRowPtr, b.BRowPtr) || !slices.Equal(a.BColIdx, b.BColIdx) {
		return false
	}
	for p := range a.NNZBlocks() {
		if !bitwiseEqual(a.Tile(p), b.Tile(p)) {
			return false
		}
	}
	return true
}

// isDiagTile reports whether stored tile p of b lies on the block diagonal.
func isDiagTile(b *sparse.BCSR, p int) bool {
	i, _ := slices.BinarySearch(b.BRowPtr, int32(p)+1)
	return int(b.BColIdx[p]) == i-1
}

// assertCSRNear checks got against want entry by entry: shared entries
// within tol, and an entry stored by only one side no larger than tol.
func assertCSRNear(t *testing.T, got, want *sparse.CSR, tol float64) {
	t.Helper()
	if got.NRows != want.NRows || got.NCols != want.NCols {
		t.Fatalf("A_fb is %d×%d, want %d×%d", got.NRows, got.NCols, want.NRows, want.NCols)
	}
	for r := 0; r < got.NRows; r++ {
		p, pe := got.RowPtr[r], got.RowPtr[r+1]
		q, qe := want.RowPtr[r], want.RowPtr[r+1]
		for p < pe || q < qe {
			switch {
			case q == qe || (p < pe && got.ColIdx[p] < want.ColIdx[q]):
				if math.Abs(got.Vals[p]) > tol {
					t.Fatalf("A_fb(%d,%d) = %g is absent from the reference", r, got.ColIdx[p], got.Vals[p])
				}
				p++
			case p == pe || want.ColIdx[q] < got.ColIdx[p]:
				if math.Abs(want.Vals[q]) > tol {
					t.Fatalf("A_fb(%d,%d) = %g is missing", r, want.ColIdx[q], want.Vals[q])
				}
				q++
			default:
				if math.Abs(got.Vals[p]-want.Vals[q]) > tol {
					t.Fatalf("A_fb(%d,%d) = %g, want %g", r, got.ColIdx[p], got.Vals[p], want.Vals[q])
				}
				p++
				q++
			}
		}
	}
}

// TestAssemblyBitwiseReproducible: the kernel packages promise bitwise
// reproducible numerics, so the reduced system must not depend on the
// worker count or on scheduling — every tile scalar, ScalarNNZ, the unit
// load and A_fb are identical across worker counts and repeated builds.
func TestAssemblyBitwiseReproducible(t *testing.T) {
	r := servedROM(t, true)
	zero := func(mesh.Vec3) [3]float64 { return [3]float64{} }
	for _, bc := range []BCKind{ClampedTopBottom, PrescribedBoundary} {
		p := &Problem{ROM: r, Bx: 6, By: 6, DeltaT: -250, BC: bc, BoundaryDisp: zero}
		ref, err := NewAssembly(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8, 2, 8} {
			asm, err := NewAssembly(p, workers)
			if err != nil {
				t.Fatal(err)
			}
			a, b := asm.Blocked(), ref.Blocked()
			if !sameTiles(a, b) || !slices.Equal(a.ValIdx, b.ValIdx) || !bitwiseEqual(a.Vals, b.Vals) ||
				a.ScalarNNZ != b.ScalarNNZ || asm.NNZ != ref.NNZ {
				t.Fatalf("bc %d, %d workers: A_ff differs from the 1-worker build", bc, workers)
			}
			if !bitwiseEqual(asm.Red.Bf, ref.Red.Bf) {
				t.Fatalf("bc %d, %d workers: b_f differs from the 1-worker build", bc, workers)
			}
			if bc == PrescribedBoundary {
				x, y := asm.Red.Afb, ref.Red.Afb
				if !slices.Equal(x.RowPtr, y.RowPtr) || !slices.Equal(x.ColIdx, y.ColIdx) || !bitwiseEqual(x.Vals, y.Vals) {
					t.Fatalf("%d workers: A_fb differs from the 1-worker build", workers)
				}
			}
		}
	}
}

func bitwiseEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestSymScatterKeepsUpperOfFull: the reduced A_ff is stored as its upper
// block triangle, and those tiles are bitwise the upper tiles of the full
// scatter, whose lower tiles are bitwise their mirrors' transposes — so
// dropping them loses nothing. With each distinct tile held once, A_ff's
// bytes are mostly per-tile indices: the upper triangle keeps two int32s
// per tile (column, dictionary entry), plus a spill slot for each tile
// that reaches past its stripe, against the full matrix's two on about
// twice the tiles, so storing one triangle cuts the A_ff share of
// Assembly.MemoryBytes by at least 20 %.
func TestSymScatterKeepsUpperOfFull(t *testing.T) {
	r := servedROM(t, true)
	for _, n := range []int{6, 12, 18} {
		if testing.Short() && n > 6 {
			continue
		}
		p := &Problem{ROM: r, Bx: n, By: n, DeltaT: -250, BC: ClampedTopBottom}
		asm, err := NewAssembly(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		lat := asm.Lat
		freeOf := make([]int32, lat.NumNodes())
		nFree := 0
		for id := range freeOf {
			freeOf[id] = -1
			if !lat.OnTopOrBottom(id) {
				freeOf[id] = 0
				nFree++
			}
		}
		twoEndedOrder(lat, freeOf)
		full, _ := newIncidence(p, lat).scatter(freeOf, freeOf, nFree, nFree, false)
		sym := asm.Blocked()
		if !sym.Sym || full.Sym {
			t.Fatalf("%dx%d: Sym flags %v/%v, want true/false", n, n, sym.Sym, full.Sym)
		}
		if got := sym.Full(); !sameTiles(got, full) || sym.ScalarNNZ != full.ScalarNNZ {
			t.Fatalf("%dx%d: upper tiles mirrored differ from the full scatter", n, n)
		}
		if up := upperOf(full); !sameTiles(sym, up) {
			t.Fatalf("%dx%d: upper tiles differ from the full scatter's", n, n)
		}
		saved := full.MemoryBytes() - sym.MemoryBytes()
		t.Logf("%dx%d: %d of %d tiles stored, A_ff %d → %d bytes", n, n, sym.NNZBlocks(), full.NNZBlocks(), full.MemoryBytes(), sym.MemoryBytes())
		if saved*100 < 20*full.MemoryBytes() {
			t.Errorf("%dx%d: upper storage saves %d of %d A_ff bytes, want ≥ 20%%", n, n, saved, full.MemoryBytes())
		}
	}
}

// referenceTiles sums every stored tile of a, assembled by scatter from
// rowOf/colOf, straight from the blocks — each row node's blocks in
// ascending order, each block's terms added into the tile in place — and
// returns the values 9 per stored tile: the full-values layout the tile
// dictionary replaced.
func referenceTiles(in *incidence, a *sparse.BCSR, rowOf, colOf []int32) []float64 {
	vals := make([]float64, 9*a.NNZBlocks())
	pos := make([]int32, a.NCols/sparse.BlockSize)
	for g, i := range rowOf {
		if i < 0 {
			continue
		}
		for q := a.BRowPtr[i]; q < a.BRowPtr[i+1]; q++ {
			pos[a.BColIdx[q]] = q
		}
		for _, e := range in.inc[in.ptr[g]:in.ptr[g+1]] {
			b, s := int(e)/in.nS, int(e)%in.nS
			n := in.roms[b].Aelem.Cols
			r0 := in.roms[b].Aelem.Data[3*s*n : 3*(s+1)*n]
			for j, h := range in.node[b*in.nS : (b+1)*in.nS] {
				c := colOf[h]
				if c < 0 || (a.Sym && c < i) {
					continue
				}
				tile := vals[9*pos[c] : 9*pos[c]+9]
				t := 3 * int(in.local[j])
				for ii := 0; ii < 3; ii++ {
					for jj := 0; jj < 3; jj++ {
						tile[3*ii+jj] += r0[ii*n+t+jj]
					}
				}
			}
		}
	}
	return vals
}

// TestTileDictionaryMatchesFullValues: the scatter's tile dictionary holds
// each distinct tile once, and every stored tile reads through its index
// bitwise equal to the full-values reference — for A_ff and for the
// unsymmetric A_fb, with dummy blocks, under both BCs.
func TestTileDictionaryMatchesFullValues(t *testing.T) {
	r, d := servedROM(t, true), servedROM(t, false)
	ring := func(bx, by int) bool { return bx == 0 || by == 0 || bx == 4 || by == 4 }
	for _, lc := range []struct {
		bx, by  int
		isDummy func(bx, by int) bool
	}{{1, 1, nil}, {2, 5, nil}, {6, 6, nil}, {5, 5, ring}} {
		for _, bc := range []BCKind{ClampedTopBottom, PrescribedBoundary} {
			p := &Problem{ROM: r, DummyROM: d, IsDummy: lc.isDummy, Bx: lc.bx, By: lc.by, BC: bc}
			lat := NewLattice(p.Bx, p.By, p.ROM.Spec.Nodes, p.ROM.Spec.Geom.Pitch, p.ROM.Spec.Geom.Height)
			freeOf, bcOf := make([]int32, lat.NumNodes()), make([]int32, lat.NumNodes())
			var nFree, nBC int32
			for id := range freeOf {
				fixed := lat.OnTopOrBottom(id)
				if bc == PrescribedBoundary {
					fixed = lat.OnOuterBoundary(id)
				}
				freeOf[id], bcOf[id] = -1, -1
				if fixed {
					bcOf[id], nBC = nBC, nBC+1
				} else {
					freeOf[id], nFree = nFree, nFree+1
				}
			}
			in := newIncidence(p, lat)
			for _, m := range []struct {
				name         string
				rowOf, colOf []int32
				nc           int32
				sym          bool
			}{{"A_ff", freeOf, freeOf, nFree, true}, {"A_fb", freeOf, bcOf, nBC, false}} {
				name := fmt.Sprintf("%dx%d/dummies=%v/bc=%d/%s", lc.bx, lc.by, lc.isDummy != nil, bc, m.name)
				a, _ := in.scatter(m.rowOf, m.colOf, int(nFree), int(m.nc), m.sym)
				if len(a.ValIdx) != a.NNZBlocks() || len(a.Vals)%9 != 0 {
					t.Fatalf("%s: %d indices for %d tiles, %d dictionary scalars", name, len(a.ValIdx), a.NNZBlocks(), len(a.Vals))
				}
				for p, e := range a.ValIdx {
					if e < 0 || int(e) >= a.Entries() {
						t.Fatalf("%s: tile %d indexes entry %d of %d", name, p, e, a.Entries())
					}
				}
				seen := map[[9]uint64]bool{}
				for e := range a.Entries() {
					var key [9]uint64
					for i, v := range a.Vals[9*e : 9*e+9] {
						key[i] = math.Float64bits(v)
					}
					if seen[key] {
						t.Fatalf("%s: entry %d repeats an earlier entry", name, e)
					}
					seen[key] = true
				}
				want := referenceTiles(in, a, m.rowOf, m.colOf)
				for p := range a.NNZBlocks() {
					if !bitwiseEqual(a.Tile(p), want[9*p:9*p+9]) {
						t.Fatalf("%s: tile %d = %v, want %v", name, p, a.Tile(p), want[9*p:9*p+9])
					}
				}
			}
		}
	}
}

// TestServedDictionaryEntries: the served lattice's A_ff holds the same
// 2 547 distinct tiles at every size — the unit cell's, repeated. A tile's
// entry is keyed by its row node's class and position, and the two-ended
// numbering keeps positions on both sides of a node's own, so a class
// reaches more positions than an id-order numbering's upper triangle does.
func TestServedDictionaryEntries(t *testing.T) {
	r := servedROM(t, true)
	for _, n := range []int{6, 12, 18} {
		asm, err := NewAssembly(&Problem{ROM: r, Bx: n, By: n, BC: ClampedTopBottom}, 0)
		if err != nil {
			t.Fatal(err)
		}
		a := asm.Blocked()
		if a.Entries() != 2547 {
			t.Errorf("%dx%d: %d dictionary entries for %d tiles, want 2 547", n, n, a.Entries(), a.NNZBlocks())
		}
	}
}

// TestServedProductMatchesFullValues: the served product through the tile
// dictionary is bitwise the product over the same tiles stored one entry
// per tile, on every pool size.
func TestServedProductMatchesFullValues(t *testing.T) {
	r := servedROM(t, true)
	asm, err := NewAssembly(&Problem{ROM: r, Bx: 12, By: 12, BC: ClampedTopBottom}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := asm.Blocked()
	perTile := make([]int32, a.NNZBlocks())
	full := make([]float64, 0, 9*a.NNZBlocks())
	for p := range perTile {
		perTile[p] = int32(p)
		full = append(full, a.Tile(p)...)
	}
	ref := sparse.NewBCSRTiles(a.NRows, a.NCols, a.BRowPtr, a.BColIdx, perTile, full, true)
	x := make([]float64, a.NCols)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	product := func(m *sparse.BCSR, workers int) []float64 {
		pool := sparse.NewPool(workers)
		defer pool.Close()
		op := &sparse.BlockMatVec{M: m, Dst: make([]float64, m.NRows), X: x, Spill: make([]float64, m.SpillLen())}
		pool.Run(m.Stripes(), op)
		op.Fold()
		return op.Dst
	}
	want := product(ref, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		if got := product(a, workers); !bitwiseEqual(got, want) {
			t.Fatalf("%d workers: the dictionary product differs from the full-values one", workers)
		}
	}
}
