package solver

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func maxAbsVec(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// TestBlockedIC0ApplyMatchesScalar compares the tiled factor application
// against the scalar reference IC(0) of the same system (referenceIC0): on
// these zero-free tile patterns both factor the same pattern, so float64
// tiles must agree to rounding noise, and float32 tiles to single-precision
// rounding of the factor, across orderings, worker counts, and dispatch
// modes.
func TestBlockedIC0ApplyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	systems := map[string]*sparse.BCSR{
		"lattice-9x8":   tiled(latticeLike(9, 8, 3)),
		"lattice-11x11": tiled(latticeLike(11, 11, 3)),
	}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0), 8}
	for name, a := range systems {
		for _, ord := range []OrderingKind{OrderingNatural, OrderingMulticolor} {
			scalar, err := referenceIC0(a, ord)
			if err != nil {
				t.Fatalf("%s/%v scalar: %v", name, ord, err)
			}
			b64, err := newIC0(a, ord, PrecisionFloat64)
			if err != nil {
				t.Fatalf("%s/%v f64: %v", name, ord, err)
			}
			b32, err := newIC0(a, ord, PrecisionAuto)
			if err != nil {
				t.Fatalf("%s/%v f32: %v", name, ord, err)
			}
			if b64.FactorPrecision() != PrecisionFloat64 {
				t.Fatalf("%s/%v: f64 factor precision=%v", name, ord, b64.FactorPrecision())
			}
			if b32.FactorPrecision() != PrecisionFloat32 {
				t.Fatalf("%s/%v: auto factor precision=%v, want float32", name, ord, b32.FactorPrecision())
			}
			n := a.NRows
			r := make([]float64, n)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			want := make([]float64, n)
			scalar.Apply(want, r)
			scale := 1 + maxAbsVec(want)

			got := make([]float64, n)
			b64.Apply(got, r)
			if d := maxAbsDiff(got, want); d > 1e-9*scale {
				t.Fatalf("%s/%v: blocked f64 apply differs from scalar by %g", name, ord, d)
			}
			want64 := make([]float64, n)
			copy(want64, got)

			got32 := make([]float64, n)
			b32.Apply(got32, r)
			if d := maxAbsDiff(got32, want); d > 2e-4*scale {
				t.Fatalf("%s/%v: blocked f32 apply differs from scalar by %g", name, ord, d)
			}
			want32 := make([]float64, n)
			copy(want32, got32)

			// Pooled dispatch stays bitwise per layout at every pool size.
			for _, w := range workerCounts {
				ws := NewWorkspace(w)
				for prec, pair := range map[string][2][]float64{
					"f64": {want64, got}, "f32": {want32, got32},
				} {
					p := b64
					if prec == "f32" {
						p = b32
					}
					p.applyPar(pair[1], r, ws)
					for i := range pair[0] {
						if pair[1][i] != pair[0][i] {
							t.Fatalf("%s/%v %s pool workers=%d: dst[%d] = %x, want %x", name, ord, prec, w, i, pair[1][i], pair[0][i])
						}
					}
				}
				ws.Close()
			}
		}
	}
}

// TestMixedPrecisionPCGMatchesFloat64 is the solve-level equivalence
// contract: on golden lattice systems the float32-factor PCG must reproduce
// the float64-factor solution to 1e-8. Both runs converge to the same tight
// tolerance; the rounded factor may cost extra iterations but not accuracy.
func TestMixedPrecisionPCGMatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	systems := map[string]*sparse.BCSR{
		"lattice-12x12": tiled(latticeLike(12, 12, 3)),
		"lattice-11x11": tiled(latticeLike(11, 11, 3)),
	}
	for name, a := range systems {
		b := make([]float64, a.NRows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x64, s64, err := PCG(a, b, nil, Options{Tol: 1e-11, Precond: PrecondIC0, Precision: PrecisionFloat64})
		if err != nil {
			t.Fatalf("%s f64: %v", name, err)
		}
		if s64.Precision != PrecisionFloat64 {
			t.Fatalf("%s f64: Stats.Precision = %v", name, s64.Precision)
		}
		for _, prec := range []Precision{PrecisionFloat32, PrecisionAuto} {
			x32, s32, err := PCG(a, b, nil, Options{Tol: 1e-11, Precond: PrecondIC0, Precision: prec})
			if err != nil {
				t.Fatalf("%s %v: %v", name, prec, err)
			}
			if s32.Precision != PrecisionFloat32 {
				t.Fatalf("%s %v: Stats.Precision = %v, want float32", name, prec, s32.Precision)
			}
			tol := 1e-8 * (1 + maxAbsVec(x64))
			if d := maxAbsDiff(x32, x64); d > tol {
				t.Fatalf("%s %v: float32 solution differs from float64 by %g (tol %g)", name, prec, d, tol)
			}
		}
	}
}

// TestPCGPrecisionStall drives the float32 guard: at a tolerance below the
// true-residual floor the recurrence eventually claims convergence, the true
// residual does not confirm it, and the solve must fail with an error that
// wraps ErrStalled (which the array layer retries against a float64 factor)
// instead of reporting a convergence it did not reach.
func TestPCGPrecisionStall(t *testing.T) {
	a := tiled(latticeLike(8, 8, 3))
	rng := rand.New(rand.NewSource(73))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	const tol = 1e-17
	_, stats, err := PCG(a, b, nil, Options{
		Tol: tol, MaxIter: 40 * a.NRows,
		Precond: PrecondIC0, Precision: PrecisionFloat32,
	})
	if err == nil || stats.Converged {
		t.Fatal("PCG converged below the float64 residual floor")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("error %v does not match ErrStalled", err)
	}
	if stats.Precision != PrecisionFloat32 {
		t.Errorf("Stats.Precision = %v, want float32", stats.Precision)
	}
	if stats.Residual <= tol {
		t.Errorf("reported residual %g meets tol %g on a failed solve", stats.Residual, tol)
	}
}

// TestPCGZeroAllocsBlockedPrecision extends the allocation-free hot-loop
// contract to the tiled factor in both storage precisions: workspace +
// prebuilt blocked preconditioner + blocked mat-vec, zero allocations in
// steady state (the float32 path includes the true-residual verification
// mat-vec on convergence).
func TestPCGZeroAllocsBlockedPrecision(t *testing.T) {
	a := tiled(latticeLike(16, 16, 3)) // 768 DoFs of dense tiles
	rng := rand.New(rand.NewSource(79))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		for _, workers := range []int{1, 4} {
			m, err := NewPreconditioner(PrecondIC0, OrderingAuto, prec, a)
			if err != nil {
				t.Fatal(err)
			}
			if ic, ok := m.(*ic0); !ok || ic.FactorPrecision() != prec {
				t.Fatalf("%v: preconditioner not an IC0 factor of the requested precision", prec)
			}
			ws := NewWorkspace(workers)
			opt := Options{Tol: 1e-8, Precond: PrecondIC0, M: m, Work: ws, Workers: workers}
			if _, _, err := PCG(a, b, nil, opt); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, _, err := PCG(a, b, nil, opt); err != nil {
					t.Fatal(err)
				}
			})
			ws.Close()
			if allocs != 0 {
				t.Errorf("%v workers=%d: %.1f allocs per steady-state blocked PCG solve, want 0", prec, workers, allocs)
			}
		}
	}
}

// TestWorkspaceBlockedMatVecMatchesScalar: the workspace binds the pooled
// tiled mat-vec to one matrix identity; for that matrix the dispatch must
// agree with the scalar CSR product to rounding noise, and a different
// matrix through the same workspace must run the serial tiled kernel.
func TestWorkspaceBlockedMatVecMatchesScalar(t *testing.T) {
	a := elasticity3(12, 12, 10) // 4320 DoFs ≥ MinParRows: the binding fans out
	bm := tiled(a)
	other := tiled(elasticity3(5, 5, 4))
	rng := rand.New(rand.NewSource(83))
	x := make([]float64, a.NRows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, a.NRows)
	a.MulVec(want, x)

	ws := NewWorkspace(4)
	defer ws.Close()
	ws.reset()
	ws.prepMatVec(bm, 4)
	if !ws.bmvReady {
		t.Fatal("workspace did not bind the pooled mat-vec")
	}
	got := make([]float64, a.NRows)
	ws.matvec(bm, got, x)
	if d := maxAbsDiff(got, want); d > 1e-10*(1+maxAbsVec(want)) {
		t.Fatalf("blocked workspace mat-vec differs from scalar by %g", d)
	}

	// A matrix the workspace was not prepped for runs the serial kernel.
	xo := x[:other.NRows]
	wantO := make([]float64, other.NRows)
	other.MulVec(wantO, xo)
	gotO := make([]float64, other.NRows)
	ws.matvec(other, gotO, xo)
	for i := range wantO {
		if gotO[i] != wantO[i] {
			t.Fatalf("unbound matrix: dst[%d] = %x, want serial %x", i, gotO[i], wantO[i])
		}
	}
}
