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
// tiles separate; both nil when every DoF is constrained) and the full
// matrix's stored-entry count.
func referenceAssembly(t *testing.T, p *Problem, workers int) (*fem.Reduced, *sparse.BCSR, int) {
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
				wantRed, want, wantNNZ := referenceAssembly(t, p, 1)
				asm, err := NewAssembly(p, 2)
				if err != nil {
					t.Fatal(err)
				}
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
				if got.NRows != want.NRows || got.NCols != want.NCols ||
					!slices.Equal(got.BRowPtr, want.BRowPtr) || !slices.Equal(got.BColIdx, want.BColIdx) {
					t.Fatalf("tile pattern differs: %d×%d with %d tiles, want %d×%d with %d",
						got.NRows, got.NCols, got.NNZBlocks(), want.NRows, want.NCols, want.NNZBlocks())
				}
				tol := 1e-15 * maxAbs(want.Vals)
				nnz := 0
				for i, v := range got.Vals {
					w := want.Vals[i]
					if math.Abs(v-w) > tol {
						t.Fatalf("tile value %d = %g, want %g (tol %g)", i, v, w, tol)
					}
					if (v == 0) != (w == 0) && math.Abs(w) > tol {
						t.Fatalf("tile value %d: zero-ness differs at a non-negligible %g", i, w)
					}
					if v != 0 {
						nnz++
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
			if !slices.Equal(a.BRowPtr, b.BRowPtr) || !slices.Equal(a.BColIdx, b.BColIdx) ||
				!bitwiseEqual(a.Vals, b.Vals) || a.ScalarNNZ != b.ScalarNNZ || asm.NNZ != ref.NNZ {
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
