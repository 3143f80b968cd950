package array

import (
	"errors"
	"testing"

	"repro/internal/solver"
)

// TestAssemblyPrecondDistinctPerPrecision: the factorizing kind caches one
// entry per concrete storage precision; PrecisionAuto builds the identical
// float32 factor and must share its entry rather than duplicate it, while
// the precision-invariant kinds collapse every request onto float64.
func TestAssemblyPrecondDistinctPerPrecision(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Hit {
		t.Error("first auto-precision request claims a cache hit")
	}
	if auto.Precision != solver.PrecisionFloat32 {
		t.Errorf("auto precision resolved to %v, want float32 on the blocked reduced matrix", auto.Precision)
	}
	single, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionFloat32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Hit || single.M != auto.M {
		t.Errorf("explicit float32 did not share the auto entry (hit=%v same=%v)", single.Hit, single.M == auto.M)
	}
	double, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionFloat64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if double.Hit || double.M == auto.M {
		t.Errorf("float64 shared the float32 entry (hit=%v)", double.Hit)
	}
	if double.Precision != solver.PrecisionFloat64 {
		t.Errorf("float64 entry reports precision %v", double.Precision)
	}
	// The float32 factor must actually be smaller than its float64 twin.
	m32, ok := auto.M.(interface{ MemoryBytes() int64 })
	m64, ok2 := double.M.(interface{ MemoryBytes() int64 })
	if !ok || !ok2 {
		t.Fatal("preconditioners do not report MemoryBytes")
	}
	if m32.MemoryBytes() >= m64.MemoryBytes() {
		t.Errorf("float32 factor (%d B) not smaller than float64 (%d B)", m32.MemoryBytes(), m64.MemoryBytes())
	}
	// Precision-invariant kinds collapse onto one float64 entry.
	j1, err := asm.PreconditionerPrec(solver.PrecondBlockJacobi3, solver.OrderingAuto, solver.PrecisionFloat32, 0)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := asm.PreconditionerPrec(solver.PrecondBlockJacobi3, solver.OrderingAuto, solver.PrecisionFloat64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Hit || j1.M != j2.M || j1.Precision != solver.PrecisionFloat64 {
		t.Errorf("block-jacobi3 did not collapse precisions: hit=%v same=%v prec=%v", j2.Hit, j1.M == j2.M, j1.Precision)
	}
}

// TestSolveSurfacesPrecision: the solve threads Options.Precision through
// the assembly cache and surfaces the concrete factor precision on the
// Solution — float32 by default on the blocked reduced matrices, float64 on
// request — and the two precisions agree on the physics.
func TestSolveSurfacesPrecision(t *testing.T) {
	p := precondProblem(t)
	p.Opt.Precond = solver.PrecondIC0
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	sol32, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol32.Precision != solver.PrecisionFloat32 || sol32.Stats.Precision != solver.PrecisionFloat32 {
		t.Errorf("default precision surfaced as %v / %v, want float32", sol32.Precision, sol32.Stats.Precision)
	}
	if sol32.PrecisionFallback {
		t.Error("default solve claims a precision fallback")
	}
	q := *p
	q.Opt.Precision = solver.PrecisionFloat64
	sol64, err := Solve(&q)
	if err != nil {
		t.Fatal(err)
	}
	if sol64.Precision != solver.PrecisionFloat64 || sol64.Stats.Precision != solver.PrecisionFloat64 {
		t.Errorf("float64 precision surfaced as %v / %v", sol64.Precision, sol64.Stats.Precision)
	}
	var maxDiff float64
	for i := range sol64.Q {
		d := sol64.Q[i] - sol32.Q[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-6 {
		t.Errorf("precisions disagree by %g µm on Q", maxDiff)
	}
	// Direct solves always report float64: no factor storage choice exists.
	r := *p
	r.Solver = Direct
	r.Assembly = nil
	dsol, err := Solve(&r)
	if err != nil {
		t.Fatal(err)
	}
	if dsol.Precision != solver.PrecisionFloat64 || dsol.Stats.Precision != solver.PrecisionFloat64 {
		t.Errorf("direct solve precision surfaced as %v / %v, want float64", dsol.Precision, dsol.Stats.Precision)
	}
}

// TestStallRetriesOnceWithFloat64Factor: a GMRES or PCG solve that stalls
// (solver.ErrStalled) under the assembly's float32 IC0 factor is retried
// once against the float64 factor, which the retry builds and caches on the
// assembly. At Tol 1e-17 in 10 iterations neither attempt can converge
// (under the two-ended factor CG reaches 2e-18 in 19), so Solve fails with
// the retry's stall; an explicit float64 request that stalls from zero has
// nothing to change, so it is not retried and builds no second factor.
func TestStallRetriesOnceWithFloat64Factor(t *testing.T) {
	for name, kind := range map[string]SolverKind{"gmres": GMRES, "cg": CG} {
		p := precondProblem(t)
		p.Solver = kind
		p.Opt = solver.Options{Tol: 1e-17, MaxIter: 10, Precond: solver.PrecondIC0}
		asm, err := NewAssembly(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.Assembly = asm
		if _, err := Solve(p); !errors.Is(err, solver.ErrStalled) {
			t.Fatalf("%s: error %v does not wrap ErrStalled", name, err)
		}
		f64, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionFloat64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !f64.Hit {
			t.Errorf("%s: the float32 stall did not retry against a cached float64 factor", name)
		}
		before := asm.MemoryBytes()
		q := *p
		q.Opt.Precision = solver.PrecisionFloat64
		if _, err := Solve(&q); !errors.Is(err, solver.ErrStalled) {
			t.Fatalf("%s float64: error %v does not wrap ErrStalled", name, err)
		}
		if after := asm.MemoryBytes(); after != before {
			t.Errorf("%s: a float64 stall changed MemoryBytes %d → %d", name, before, after)
		}
	}
}
