package solver_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/solver"
	"repro/internal/sparse"
)

// frob returns the Frobenius norm of the 9-value tile at index p of vals.
func frob(vals []float64, p int) float64 {
	var s float64
	for _, v := range vals[9*p : 9*p+9] {
		s += v * v
	}
	return math.Sqrt(s)
}

// TestIC0DropRemovesExactlyTheSmallTiles: the applied factor is the IC(0)
// factor less exactly the off-diagonal tiles with ‖L_IJ‖_F <
// τ·√(‖L_II‖_F·‖L_JJ‖_F): every diagonal tile stays, and every kept tile
// holds the IC(0) factor's bits. The float32 factor drops the same tiles.
func TestIC0DropRemovesExactlyTheSmallTiles(t *testing.T) {
	a, _ := servedMatrix(t, 6)
	full := ic0Factor(t, a, solver.PrecisionFloat64, 0)
	dropped := ic0Factor(t, a, solver.PrecisionFloat64, solver.DropTau)
	nb := full.NBRows()
	diag := make([]float64, nb)
	for i := range diag {
		cols, first := full.Row(i, false)
		diag[i] = frob(full.Lower.Vals, first+len(cols)-1)
	}
	kept := 0
	for i := 0; i < nb; i++ {
		cols, first := full.Row(i, false)
		var wantCols []int32
		var wantVals []float64
		for q, j := range cols {
			p := first + q
			if int(j) == i || frob(full.Lower.Vals, p) >= solver.DropTau*math.Sqrt(diag[i]*diag[j]) {
				wantCols = append(wantCols, j)
				wantVals = append(wantVals, full.Lower.Vals[9*p:9*p+9]...)
			}
		}
		gotCols, got := dropped.Row(i, false)
		gotVals := dropped.Lower.Vals[9*got : 9*(got+len(gotCols))]
		if !slices.Equal(gotCols, wantCols) || !bitsEqual(gotVals, wantVals) {
			t.Fatalf("block row %d keeps columns %v, want %v (or different bits)", i, gotCols, wantCols)
		}
		kept += len(wantCols)
	}
	if kept == len(full.Lower.Idx) {
		t.Errorf("the drop kept all %d tiles", kept)
	}
	t.Logf("kept %d of %d tiles", kept, len(full.Lower.Idx))
	single := ic0Factor(t, a, solver.PrecisionFloat32, solver.DropTau)
	if !slices.Equal(single.Lower.Idx, dropped.Lower.Idx) || !slices.Equal(single.Lower.Ptr, dropped.Lower.Ptr) {
		t.Errorf("the float32 factor drops other tiles than the float64 one")
	}
}

// TestIC0DropIsScaleInvariant: scaling A scales every tile norm of the rule
// alike, so A·1e6 drops the same tiles.
func TestIC0DropIsScaleInvariant(t *testing.T) {
	a, _ := servedMatrix(t, 6)
	scaled := *a
	scaled.Vals = make([]float64, len(a.Vals))
	for i, v := range a.Vals {
		scaled.Vals[i] = 1e6 * v
	}
	x := ic0Factor(t, a, solver.PrecisionFloat64, solver.DropTau)
	y := ic0Factor(t, &scaled, solver.PrecisionFloat64, solver.DropTau)
	for _, tr := range [][2]*sparse.TriRows{{&x.Lower, &y.Lower}, {&x.Upper, &y.Upper}} {
		if !slices.Equal(tr[0].Ptr, tr[1].Ptr) || !slices.Equal(tr[0].Idx, tr[1].Idx) {
			t.Fatalf("A·1e6 drops other tiles than A")
		}
	}
}

// TestIC0DropConvergesOnServed: PCG and GMRES converge under the dropped
// factor on the served 6×6 and 12×12 lattices in both storage precisions,
// within three iterations of the whole IC(0) factor.
func TestIC0DropConvergesOnServed(t *testing.T) {
	for _, size := range []int{6, 12} {
		a, b := servedMatrix(t, size)
		for _, prec := range []solver.Precision{solver.PrecisionFloat64, solver.PrecisionFloat32} {
			name := fmt.Sprintf("%dx%d/%v", size, size, prec)
			m, err := solver.NewPreconditioner(solver.PrecondIC0, prec, a)
			if err != nil {
				t.Fatal(err)
			}
			full, err := solver.NewIC0Tau(a, prec, 0)
			if err != nil {
				t.Fatal(err)
			}
			for solve, run := range map[string]func(*sparse.BCSR, []float64, []float64, solver.Options) ([]float64, solver.Stats, error){
				"pcg": solver.PCG, "gmres": solver.GMRES,
			} {
				_, st, err := run(a, b, nil, solver.Options{M: m})
				if err != nil || !st.Converged {
					t.Fatalf("%s/%s: converged=%v, %v", name, solve, st.Converged, err)
				}
				_, ref, err := run(a, b, nil, solver.Options{M: full})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s/%s: %d iterations, %d under the whole IC(0) factor", name, solve, st.Iterations, ref.Iterations)
				if st.Iterations > ref.Iterations+3 {
					t.Errorf("%s/%s: %d iterations, more than 3 over the whole factor's %d", name, solve, st.Iterations, ref.Iterations)
				}
			}
		}
	}
}

// TestIC0ApplyBitwiseAcrossPoolsOnServed: the pooled apply of the served
// factor, whose rows are stored in sweep order, is bitwise equal to the
// serial one at every pool size.
func TestIC0ApplyBitwiseAcrossPoolsOnServed(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, size := range []int{6, 12} {
		a, _ := servedMatrix(t, size)
		r := make([]float64, a.NRows)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		m, err := solver.NewPreconditioner(solver.PrecondIC0, solver.PrecisionAuto, a)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, a.NRows)
		m.Apply(want, r)
		for _, w := range []int{1, 2, 4, 8} {
			ws := solver.NewWorkspace(w)
			got := make([]float64, a.NRows)
			solver.ApplyPar(m, got, r, ws)
			ws.Close()
			if !bitsEqual(got, want) {
				t.Fatalf("%dx%d: pooled apply at %d workers differs from the serial one", size, size, w)
			}
		}
	}
}

// ic0Factor builds the IC0 factor of a with drop threshold tau.
func ic0Factor(t *testing.T, a *sparse.BCSR, prec solver.Precision, tau float64) *sparse.BlockLowerTri {
	t.Helper()
	m, err := solver.NewIC0Tau(a, prec, tau)
	if err != nil {
		t.Fatal(err)
	}
	l := solver.IC0Factor(m)
	return l
}

// bitsEqual reports whether two vectors hold the same float64 bits.
func bitsEqual(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}
