package array

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/solver"
)

// precondProblem is a small CG problem for the cache tests.
func precondProblem(t *testing.T) *Problem {
	t.Helper()
	return &Problem{
		ROM: buildROM(t, 4, true), Bx: 2, By: 2, DeltaT: -250,
		BC: ClampedTopBottom, Solver: CG,
		Opt: solver.Options{Tol: 1e-9},
	}
}

// TestAssemblyPrecondSharedAcrossSolves: the first iterative solve on an
// assembly builds the preconditioner (and records the cost); every later
// solve on the same assembly — any ΔT — reuses it.
func TestAssemblyPrecondSharedAcrossSolves(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	first, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.PrecondShared {
		t.Error("first solve claims a cached preconditioner")
	}
	if first.Stats.PrecondBuild <= 0 {
		t.Error("first solve did not record the preconditioner build cost")
	}
	for _, dt := range []float64{-100, -250, 40} {
		q := *p
		q.DeltaT = dt
		sol, err := Solve(&q)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.PrecondShared {
			t.Errorf("ΔT=%g: preconditioner was rebuilt", dt)
		}
		if sol.Stats.PrecondBuild != 0 {
			t.Errorf("ΔT=%g: PrecondBuild = %v on a cache hit, want 0", dt, sol.Stats.PrecondBuild)
		}
		if sol.Stats.PrecondApply <= 0 {
			t.Errorf("ΔT=%g: PrecondApply not recorded", dt)
		}
	}
}

// TestAssemblyPrecondDistinctPerKind: each concrete kind caches its own
// entry, and PrecondAuto shares the entry of the kind it resolves to.
func TestAssemblyPrecondDistinctPerKind(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := asm.PreconditionerPrec(solver.PrecondBlockJacobi3, solver.OrderingAuto, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bj.Hit || bj.Build <= 0 {
		t.Errorf("first block-jacobi3 request: hit=%v build=%v", bj.Hit, bj.Build)
	}
	ic, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Hit {
		t.Error("ic0 hit the block-jacobi3 entry")
	}
	if ic.M == bj.M {
		t.Error("distinct kinds share one preconditioner")
	}
	again, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Hit || again.M != ic.M || again.Build != 0 {
		t.Errorf("repeat ic0 request: hit=%v same=%v build=%v", again.Hit, again.M == ic.M, again.Build)
	}
	// Auto must share the resolved kind's entry rather than cache a
	// duplicate under PrecondAuto.
	resolved := solver.PrecondKind(solver.PrecondAuto).Resolve()
	want, err := asm.PreconditionerPrec(resolved, solver.OrderingAuto, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := asm.PreconditionerPrec(solver.PrecondAuto, solver.OrderingAuto, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if auto.M != want.M || !auto.Hit {
		t.Errorf("auto did not share the %v entry (hit=%v)", resolved, auto.Hit)
	}
}

// TestAssemblyPrecondSharedAcrossOrderings: IC0 factors in the one natural
// ordering, so every requested ordering — auto, natural and the reserved
// value of the deleted multicolor ordering — shares the lattice's one cache
// entry and reports the ordering the lattice's A_ff carries: two-ended for
// IC0, natural for the kinds that factor nothing.
func TestAssemblyPrecondSharedAcrossOrderings(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[solver.PrecondKind]solver.OrderingKind{
		solver.PrecondIC0:          solver.OrderingTwoEnded,
		solver.PrecondBlockJacobi3: solver.OrderingNatural,
	} {
		first, err := asm.PreconditionerPrec(kind, solver.OrderingNatural, solver.PrecisionAuto, 0)
		if err != nil {
			t.Fatal(err)
		}
		if first.Hit {
			t.Errorf("%v: first request claims a cached preconditioner", kind)
		}
		for _, ord := range []solver.OrderingKind{solver.OrderingAuto, solver.OrderingNatural, 3} {
			ap, err := asm.PreconditionerPrec(kind, ord, solver.PrecisionAuto, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !ap.Hit || ap.M != first.M || ap.Ordering != want {
				t.Errorf("%v/%v: hit=%v same=%v ordering=%v, want the one %v entry", kind, ord, ap.Hit, ap.M == first.M, ap.Ordering, want)
			}
		}
	}
}

// TestAssemblyOrderingFollowsNumbering pins where the ordering rule
// lives: an assembly numbers its free nodes in the two-ended order, so IC0
// on its A_ff (Auto included) reports two-ended and the kinds that factor
// nothing report natural, for every GOMAXPROCS.
func TestAssemblyOrderingFollowsNumbering(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	asm, err := NewAssembly(precondProblem(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for kind, want := range map[solver.PrecondKind]solver.OrderingKind{
			solver.PrecondIC0:          solver.OrderingTwoEnded,
			solver.PrecondAuto:         solver.OrderingTwoEnded,
			solver.PrecondBlockJacobi3: solver.OrderingNatural,
			solver.PrecondNone:         solver.OrderingNatural,
		} {
			ap, err := asm.PreconditionerPrec(kind, solver.OrderingNatural, solver.PrecisionAuto, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ap.Ordering != want {
				t.Errorf("GOMAXPROCS %d: %v on A_ff reports %v, want %v", procs, kind, ap.Ordering, want)
			}
		}
	}
}

// TestSolveSurfacesOrdering: the solve surfaces the ordering its factor ran
// under on the Solution — the lattice's two-ended order, also for a request
// that names the reserved multicolor value or natural — and every request
// gives the same answer.
func TestSolveSurfacesOrdering(t *testing.T) {
	p := precondProblem(t)
	p.Opt.Precond = solver.PrecondIC0
	p.Opt.Ordering = 3
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	first, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Ordering != solver.OrderingTwoEnded || first.Stats.Ordering != solver.OrderingTwoEnded {
		t.Errorf("ordering surfaced as %v / %v, want two-ended", first.Ordering, first.Stats.Ordering)
	}
	if first.PrecondShared {
		t.Error("first solve claims a cached preconditioner")
	}
	q := *p
	q.Opt.Ordering = solver.OrderingNatural
	natSol, err := Solve(&q)
	if err != nil {
		t.Fatal(err)
	}
	if !natSol.PrecondShared || natSol.Ordering != solver.OrderingTwoEnded {
		t.Errorf("natural solve: shared=%v ordering=%v", natSol.PrecondShared, natSol.Ordering)
	}
	for i := range natSol.Q {
		if math.Float64bits(natSol.Q[i]) != math.Float64bits(first.Q[i]) {
			t.Fatalf("Q[%d]: %v under the reserved value, %v under natural", i, first.Q[i], natSol.Q[i])
		}
	}
}

// TestAssemblyPrecondConcurrentFirstUse: concurrent first requests build the
// preconditioner exactly once (everyone gets the same instance; exactly one
// caller reports a miss).
func TestAssemblyPrecondConcurrentFirstUse(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]AssemblyPrecond, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := asm.PreconditionerPrec(solver.PrecondBlockJacobi3, solver.OrderingAuto, solver.PrecisionAuto, 0)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	misses := 0
	for i, r := range results {
		if r.M != results[0].M {
			t.Fatalf("caller %d got a different preconditioner", i)
		}
		if !r.Hit {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers reported a miss, want exactly 1", misses)
	}
}

// TestAssemblyMemoryBytesCountsPreconds: the snapshot's footprint must grow
// as preconditioners are cached, so byte-budgeted assembly caches see them.
func TestAssemblyMemoryBytesCountsPreconds(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := asm.MemoryBytes()
	if _, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionAuto, 0); err != nil {
		t.Fatal(err)
	}
	afterIC := asm.MemoryBytes()
	if afterIC <= before {
		t.Errorf("MemoryBytes %d → %d did not grow after caching IC0", before, afterIC)
	}
	if _, err := asm.PreconditionerPrec(solver.PrecondBlockJacobi3, solver.OrderingAuto, solver.PrecisionAuto, 0); err != nil {
		t.Fatal(err)
	}
	if after := asm.MemoryBytes(); after <= afterIC {
		t.Errorf("MemoryBytes %d → %d did not grow after caching block-jacobi3", afterIC, after)
	}
}

// TestAssemblyDirectFactorShared: the first Direct solve on an assembly
// factors A_ff and caches the factor there, MemoryBytes grows by exactly
// its MemoryBytes, and a later Direct solve reuses it for bitwise the
// answer of a fresh factorization.
func TestAssemblyDirectFactorShared(t *testing.T) {
	p := precondProblem(t)
	p.Solver = Direct
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	before := asm.MemoryBytes()
	first, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.PrecondShared {
		t.Error("the solve that factored reports a shared factor")
	}
	chol, err := solver.NewCholesky(asm.aff.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if grew := asm.MemoryBytes() - before; grew != chol.MemoryBytes() {
		t.Errorf("MemoryBytes grew by %d after the Direct solve, the factor holds %d", grew, chol.MemoryBytes())
	}
	q := *p
	q.DeltaT = 40
	second, err := Solve(&q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.PrecondShared {
		t.Error("the second Direct solve refactored")
	}
	want := chol.Solve(asm.Red.RHS(q.DeltaT, nil))
	for i, v := range second.QFree {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("QFree[%d] = %v from the cached factor, %v from a fresh one", i, v, want[i])
		}
	}
}

// TestAssemblyPrecondRequiresFreeDoFs: the degenerate all-constrained
// assembly has nothing to precondition.
func TestAssemblyPrecondRequiresFreeDoFs(t *testing.T) {
	p := precondProblem(t)
	p.ROM = buildROM(t, 2, true) // (2,2,2) nodes: every DoF constrained
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !asm.AllBC {
		t.Fatal("expected the all-constrained degenerate case")
	}
	if _, err := asm.PreconditionerPrec(solver.PrecondAuto, solver.OrderingAuto, solver.PrecisionAuto, 0); err == nil {
		t.Error("Preconditioner on an all-BC assembly should error")
	}
}

// TestAutoOrderingFollowsDefaultWorkers: the assembly cache resolves
// OrderingAuto through the same rule as a bare solve, and no worker count
// moves it. A process held to one worker factors a 12×12 lattice two-ended,
// and a request that names 1 or 4 workers shares that one factor.
func TestAutoOrderingFollowsDefaultWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	p := &Problem{ROM: buildROM(t, 4, true), Bx: 12, By: 12, DeltaT: -250, BC: ClampedTopBottom, Solver: GMRES}
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Ordering != solver.OrderingTwoEnded {
		t.Errorf("auto ordering at DefaultWorkers 1 resolved to %v, want two-ended", ap.Ordering)
	}
	for _, w := range []int{1, 4} {
		again, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionAuto, w)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Hit || again.M != ap.M {
			t.Errorf("%d workers: hit=%v, same factor=%v; want the one cached factor", w, again.Hit, again.M == ap.M)
		}
	}
}

// TestAutoOrderingOnServedLattices pins what OrderingAuto decides on the
// served (5,5,5) coarse cell for the lattices the benchmark workloads run:
// the new-design shapes and the 12×12 hotspot lattice all factor two-ended,
// at 1 worker as at 2. PrecondAuto is IC0 at every size: a bare Solve,
// which builds its own assembly and factor for one solve, resolves it as
// the engine's cached path does, from the golden 2×3 lattice up.
func TestAutoOrderingOnServedLattices(t *testing.T) {
	r := servedROM(t, true)
	for _, c := range []struct {
		bx, by, workers, free int
		want                  solver.OrderingKind
	}{
		{4, 8, 2, 2457, solver.OrderingTwoEnded},
		{5, 7, 2, 2646, solver.OrderingTwoEnded},
		{6, 6, 2, 2709, solver.OrderingTwoEnded},
		{12, 12, 2, 9945, solver.OrderingTwoEnded},
		{12, 12, 1, 9945, solver.OrderingTwoEnded},
	} {
		asm, err := NewAssembly(&Problem{ROM: r, Bx: c.bx, By: c.by, DeltaT: -250, BC: ClampedTopBottom}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := asm.NumFree(); n != c.free {
			t.Errorf("%d×%d: %d free DoFs, want %d", c.bx, c.by, n, c.free)
		}
		ap, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionAuto, c.workers)
		if err != nil {
			t.Fatal(err)
		}
		if ap.Ordering != c.want {
			t.Errorf("%d×%d at %d workers: auto ordering %v, want %v", c.bx, c.by, c.workers, ap.Ordering, c.want)
		}
	}
	for _, c := range []struct {
		bx, by int
		want   solver.PrecondKind
	}{
		{2, 3, solver.PrecondIC0}, // 567 free DoFs
		{4, 8, solver.PrecondIC0}, // 2 457 free DoFs
		{6, 6, solver.PrecondIC0}, // 2 709 free DoFs
	} {
		sol, err := Solve(&Problem{ROM: r, Bx: c.bx, By: c.by, DeltaT: -250, BC: ClampedTopBottom, Solver: GMRES})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Stats.Precond != c.want {
			t.Errorf("%d×%d bare Solve: auto preconditioner %v, want %v", c.bx, c.by, sol.Stats.Precond, c.want)
		}
	}
}
