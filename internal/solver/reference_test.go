package solver

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// scalarIC0 is the scalar left-looking IC(0) that the block factor
// replaced, kept as the reference: L on the scalar pattern of the lower
// triangle of P·A·Pᵀ, with the exact zeros inside stored tiles dropped, as
// columns (diagonal first, rows ascending).
type scalarIC0 struct {
	l    *sparse.CSC
	perm []int32 // original→permuted scalar index, nil for natural
}

// referenceIC0 factors a with the scalar reference under the concrete
// ordering ord, as newIC0 does.
func referenceIC0(a *sparse.BCSR, ord OrderingKind) (*scalarIC0, error) {
	perm := orderingPerm(ord, a)
	csc := a.ToCSR().ToCSC()
	if perm != nil {
		csc = csc.Permute(perm)
	}
	l := lowerTriangle(csc)
	n := l.NCols
	colStart := make([]int32, n)
	for j := 0; j < n; j++ {
		if l.ColPtr[j] == l.ColPtr[j+1] || l.RowIdx[l.ColPtr[j]] != int32(j) {
			return nil, fmt.Errorf("reference IC0 missing diagonal at column %d", j)
		}
		colStart[j] = l.ColPtr[j]
	}
	x := make([]float64, n)
	next := make([]int32, n)
	for j := 0; j < n; j++ {
		next[j] = l.ColPtr[j] + 1
	}
	head := make([]int32, n)
	link := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	pushCol := func(j int32) {
		if next[j] < l.ColPtr[j+1] {
			i := l.RowIdx[next[j]]
			link[j] = head[i]
			head[i] = j
		}
	}
	for j := 0; j < n; j++ {
		for p := l.ColPtr[j]; p < l.ColPtr[j+1]; p++ {
			x[l.RowIdx[p]] = l.Vals[p]
		}
		for k := head[j]; k != -1; {
			nextK := link[k]
			pjk := next[k]
			ljk := l.Vals[pjk]
			for p := pjk; p < l.ColPtr[k+1]; p++ {
				x[l.RowIdx[p]] -= ljk * l.Vals[p]
			}
			next[k] = pjk + 1
			pushCol(k)
			k = nextK
		}
		d := x[j]
		if d <= 0 {
			d = math.Abs(d) + 1e-12
		}
		d = math.Sqrt(d)
		l.Vals[colStart[j]] = d
		x[j] = 0
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			i := l.RowIdx[p]
			l.Vals[p] = x[i] / d
			x[i] = 0
		}
		pushCol(int32(j))
	}
	return &scalarIC0{l: l, perm: perm}, nil
}

// lowerTriangle returns the lower triangle (diagonal included) of m.
func lowerTriangle(m *sparse.CSC) *sparse.CSC {
	out := &sparse.CSC{NRows: m.NRows, NCols: m.NCols, ColPtr: make([]int32, m.NCols+1)}
	for c := 0; c < m.NCols; c++ {
		for p := m.ColPtr[c]; p < m.ColPtr[c+1]; p++ {
			if m.RowIdx[p] >= int32(c) {
				out.RowIdx = append(out.RowIdx, m.RowIdx[p])
				out.Vals = append(out.Vals, m.Vals[p])
			}
		}
		out.ColPtr[c+1] = int32(len(out.Vals))
	}
	return out
}

// Apply computes dst = Pᵀ·(L·Lᵀ)⁻¹·P·r with serial column sweeps.
func (s *scalarIC0) Apply(dst, r []float64) {
	l := s.l
	y := make([]float64, len(r))
	for i, v := range r {
		if s.perm != nil {
			i = int(s.perm[i])
		}
		y[i] = v
	}
	for j := 0; j < l.NCols; j++ {
		y[j] /= l.Vals[l.ColPtr[j]]
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			y[l.RowIdx[p]] -= l.Vals[p] * y[j]
		}
	}
	for j := l.NCols - 1; j >= 0; j-- {
		v := y[j]
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			v -= l.Vals[p] * y[l.RowIdx[p]]
		}
		y[j] = v / l.Vals[l.ColPtr[j]]
	}
	for i := range dst {
		if s.perm != nil {
			dst[i] = y[s.perm[i]]
		} else {
			dst[i] = y[i]
		}
	}
}

// at returns L[i, j] (0 off the pattern).
func (s *scalarIC0) at(i, j int) float64 {
	lo, hi := s.l.ColPtr[j], s.l.ColPtr[j+1]
	if k, ok := slices.BinarySearch(s.l.RowIdx[lo:hi], int32(i)); ok {
		return s.l.Vals[int(lo)+k]
	}
	return 0
}

// compareWithReference factors a both ways under ord — the block factor in
// float64 — and returns their largest factor-entry and apply differences,
// each relative to the reference's largest magnitude. Every lower entry of
// every stored factor tile is compared, so a block factor entry the
// reference pattern lacks counts against a reference value of zero.
func compareWithReference(a *sparse.BCSR, ord OrderingKind, seed int64) (factorRel, applyRel float64, err error) {
	ref, err := referenceIC0(a, ord)
	if err != nil {
		return 0, 0, err
	}
	p, err := newIC0(a, ord, PrecisionFloat64)
	if err != nil {
		return 0, 0, err
	}
	var dmax, lmax float64
	for _, v := range ref.l.Vals {
		lmax = math.Max(lmax, math.Abs(v))
	}
	l := p.l
	for bi := 0; bi < l.NBRows(); bi++ {
		for q := l.BRowPtr[bi]; q < l.BRowPtr[bi+1]; q++ {
			bj := int(l.BColIdx[q])
			for k, v := range l.Vals[9*q : 9*q+9] {
				i, j := sparse.BlockSize*bi+k/sparse.BlockSize, sparse.BlockSize*bj+k%sparse.BlockSize
				if j > i {
					continue
				}
				dmax = math.Max(dmax, math.Abs(v-ref.at(i, j)))
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	r := make([]float64, a.NRows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	want := make([]float64, a.NRows)
	ref.Apply(want, r)
	got := make([]float64, a.NRows)
	p.Apply(got, r)
	return dmax / lmax, maxAbsDiff(got, want) / maxAbsVec(want), nil
}

// TestIC0MatchesScalarReference: on a tile pattern that stores no zeros the
// scalar pattern equals the tile pattern, so block IC(0) is the scalar
// IC(0) in exact arithmetic and the two differ only by rounding.
func TestIC0MatchesScalarReference(t *testing.T) {
	for name, a := range map[string]*sparse.BCSR{
		"lattice-9x8":   tiled(latticeLike(9, 8, 3)),
		"lattice-12x12": tiled(latticeLike(12, 12, 3)),
	} {
		for _, ord := range []OrderingKind{OrderingNatural, OrderingMulticolor} {
			factorRel, applyRel, err := compareWithReference(a, ord, 71)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, ord, err)
			}
			t.Logf("%s/%v: factor %.3g, apply %.3g relative", name, ord, factorRel, applyRel)
			if factorRel > 1e-12 || applyRel > 1e-12 {
				t.Errorf("%s/%v: factor differs by %.3g, apply by %.3g relative, want ≤ 1e-12", name, ord, factorRel, applyRel)
			}
		}
	}
}

// TestIC0FactorBitwiseAcrossBuilds: the build is serial and keeps no map or
// clock in its arithmetic, so three builds under each of GOMAXPROCS 1, 2
// and 4 give the same factor bits, in both storage precisions.
func TestIC0FactorBitwiseAcrossBuilds(t *testing.T) {
	a := tiled(latticeLike(12, 12, 3))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, ord := range []OrderingKind{OrderingNatural, OrderingMulticolor} {
		for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
			var want *ic0
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for build := 0; build < 3; build++ {
					p, err := newIC0(a, ord, prec)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = p
						continue
					}
					if !sameFactor(p.l, want.l) || !slices.Equal(p.perm, want.perm) {
						t.Fatalf("%v/%v: build %d at GOMAXPROCS=%d differs from the first build", ord, prec, build, procs)
					}
				}
			}
		}
	}
}

// sameFactor reports whether two factors hold the same pattern and bits.
func sameFactor(x, y *sparse.BlockLowerTri) bool {
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	bits32 := func(a, b []float32) bool {
		return slices.EqualFunc(a, b, func(u, v float32) bool { return math.Float32bits(u) == math.Float32bits(v) })
	}
	return slices.Equal(x.BRowPtr, y.BRowPtr) && slices.Equal(x.BColIdx, y.BColIdx) &&
		slices.Equal(x.BUpPtr, y.BUpPtr) && slices.Equal(x.BUpIdx, y.BUpIdx) &&
		bits(x.Vals, y.Vals) && bits(x.UpVals, y.UpVals) &&
		bits32(x.Vals32, y.Vals32) && bits32(x.UpVals32, y.UpVals32)
}

// TestIC0MissingDiagonal: a block row without its diagonal tile has no pivot
// to factor, and the build says where.
func TestIC0MissingDiagonal(t *testing.T) {
	one := []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	a := &sparse.BCSR{
		NRows: 6, NCols: 6,
		BRowPtr: []int32{0, 2, 3},
		BColIdx: []int32{0, 1, 0}, // block row 1 holds only (1, 0)
		Vals:    slices.Concat(one, one, one),
	}
	for _, ord := range []OrderingKind{OrderingNatural, OrderingMulticolor} {
		_, err := NewPreconditioner(PrecondIC0, ord, PrecisionAuto, a)
		if err == nil || !strings.Contains(err.Error(), "missing diagonal at block column 1") {
			t.Errorf("%v: err = %v, want a missing-diagonal error at block column 1", ord, err)
		}
	}
}

// TestIC0ShiftsNonPositivePivot forces a breakdown: on the indefinite
// two-node system [[I, 2I], [2I, I]] the Schur update leaves −3 on every
// pivot of the second node, which the build shifts to √(3+1e-12) instead
// of failing — as the scalar reference does.
func TestIC0ShiftsNonPositivePivot(t *testing.T) {
	tr := sparse.NewTriplet(6, 6, 12)
	for i := 0; i < 3; i++ {
		tr.Add(i, i, 1)
		tr.Add(i+3, i+3, 1)
		tr.Add(i, i+3, 2)
		tr.Add(i+3, i, 2)
	}
	a := tiled(tr.ToCSR())
	p, err := newIC0(a, OrderingNatural, PrecisionFloat64)
	if err != nil {
		t.Fatal(err)
	}
	d := p.l.Vals[9*(p.l.BRowPtr[2]-1):] // block row 1's diagonal tile
	want := math.Sqrt(3 + 1e-12)
	for _, k := range []int{0, 4, 8} {
		if d[k] != want {
			t.Errorf("shifted pivot L[%d,%d] = %v, want %v", 3+k/3, 3+k/3, d[k], want)
		}
	}
	factorRel, applyRel, err := compareWithReference(a, OrderingNatural, 73)
	if err != nil {
		t.Fatal(err)
	}
	if factorRel > 1e-15 || applyRel > 1e-15 {
		t.Errorf("shifted factor differs from the reference: factor %.3g, apply %.3g relative", factorRel, applyRel)
	}
}
