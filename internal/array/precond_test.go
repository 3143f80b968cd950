package array

import (
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
	// Auto resolves against the reduced size and must share the resolved
	// kind's entry rather than cache a duplicate under PrecondAuto.
	resolved := solver.PrecondKind(solver.PrecondAuto).Resolve(asm.NumFree())
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

// TestAssemblyPrecondDistinctPerOrdering: the factorizing kind caches one
// entry per concrete ordering (the ordering permutation lives inside the
// factor), OrderingAuto shares the entry of the ordering it resolves to, and
// the ordering-invariant kinds collapse every ordering onto one entry.
func TestAssemblyPrecondDistinctPerOrdering(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingNatural, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingMulticolor, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Hit || mc.M == nat.M {
		t.Errorf("multicolor ic0 shared the natural entry (hit=%v)", mc.Hit)
	}
	if nat.Ordering != solver.OrderingNatural || mc.Ordering != solver.OrderingMulticolor {
		t.Errorf("orderings recorded as %v, %v", nat.Ordering, mc.Ordering)
	}
	again, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingMulticolor, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Hit || again.M != mc.M {
		t.Errorf("repeat multicolor request: hit=%v same=%v", again.Hit, again.M == mc.M)
	}
	// Auto resolves to a concrete ordering and must share that entry rather
	// than cache a duplicate under OrderingAuto.
	resolved := solver.ResolveOrdering(solver.OrderingAuto, asm.NumFree(), 0)
	want, err := asm.PreconditionerPrec(solver.PrecondIC0, resolved, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if auto.M != want.M || !auto.Hit {
		t.Errorf("auto did not share the %v entry (hit=%v)", resolved, auto.Hit)
	}
	// Ordering-invariant kinds ignore the ordering: one entry for all.
	j1, err := asm.PreconditionerPrec(solver.PrecondBlockJacobi3, solver.OrderingNatural, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := asm.PreconditionerPrec(solver.PrecondBlockJacobi3, solver.OrderingMulticolor, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Hit || j1.M != j2.M || j2.Ordering != solver.OrderingNatural {
		t.Errorf("block-jacobi3 did not collapse orderings: hit=%v same=%v ord=%v", j2.Hit, j1.M == j2.M, j2.Ordering)
	}
}

// TestSolveSurfacesOrdering: the solve threads Options.Ordering through the
// assembly cache and surfaces the concrete ordering on the Solution.
func TestSolveSurfacesOrdering(t *testing.T) {
	p := precondProblem(t)
	p.Opt.Precond = solver.PrecondIC0
	p.Opt.Ordering = solver.OrderingMulticolor
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	first, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Ordering != solver.OrderingMulticolor || first.Stats.Ordering != solver.OrderingMulticolor {
		t.Errorf("ordering surfaced as %v / %v, want multicolor", first.Ordering, first.Stats.Ordering)
	}
	if first.PrecondShared {
		t.Error("first multicolor solve claims a cached preconditioner")
	}
	second, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !second.PrecondShared || second.Ordering != solver.OrderingMulticolor {
		t.Errorf("second solve: shared=%v ordering=%v", second.PrecondShared, second.Ordering)
	}
	// The two orderings must agree on the physics.
	q := *p
	q.Opt.Ordering = solver.OrderingNatural
	natSol, err := Solve(&q)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for i := range natSol.Q {
		if d := natSol.Q[i] - second.Q[i]; d > maxDiff || -d > maxDiff {
			if d < 0 {
				d = -d
			}
			maxDiff = d
		}
	}
	if maxDiff > 1e-6 {
		t.Errorf("orderings disagree by %g µm on Q", maxDiff)
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

// TestAutoOrderingFollowsDefaultWorkers: with no explicit worker count the
// assembly cache resolves OrderingAuto through the same rule as a bare
// solve, at solver.DefaultWorkers (GOMAXPROCS). A process held to one
// worker must get the natural factor, exactly as a bare PCG would.
func TestAutoOrderingFollowsDefaultWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	p := &Problem{ROM: buildROM(t, 4, true), Bx: 12, By: 12, DeltaT: -250, BC: ClampedTopBottom, Solver: GMRES}
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := asm.NumFree(); n < solver.AutoMulticolorMinDoFs {
		t.Fatalf("lattice has %d free DoFs, want ≥ %d so the worker count decides", n, solver.AutoMulticolorMinDoFs)
	}
	ap, err := asm.PreconditionerPrec(solver.PrecondIC0, solver.OrderingAuto, solver.PrecisionAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Ordering != solver.OrderingNatural {
		t.Errorf("auto ordering at DefaultWorkers 1 resolved to %v, want natural", ap.Ordering)
	}
	// Control: the same system handed 4 workers explicitly does switch, so
	// the default — not the system — decided above.
	if got := solver.ResolveOrdering(solver.OrderingAuto, asm.NumFree(), 4); got != solver.OrderingMulticolor {
		t.Errorf("auto ordering at 4 workers resolved to %v, want multicolor", got)
	}
}

// TestAutoOrderingOnServedLattices pins what OrderingAuto decides on the
// served (5,5,5) coarse cell for the lattices the benchmark workloads run:
// the new-design shapes stay natural on size alone, and the 12×12 hotspot
// lattice factors multicolor at 2 workers but natural at 1. The decision
// follows the system size and the worker count only. PrecondAuto likewise
// follows the size alone: a bare Solve, which builds its own assembly and
// factor for one solve, resolves it as the engine's cached path does, on
// either side of solver.AutoIC0Threshold.
func TestAutoOrderingOnServedLattices(t *testing.T) {
	r := servedROM(t, true)
	for _, c := range []struct {
		bx, by, workers, free int
		want                  solver.OrderingKind
	}{
		{4, 8, 2, 2457, solver.OrderingNatural},
		{5, 7, 2, 2646, solver.OrderingNatural},
		{6, 6, 2, 2709, solver.OrderingNatural},
		{12, 12, 2, 9945, solver.OrderingMulticolor},
		{12, 12, 1, 9945, solver.OrderingNatural},
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
		{4, 8, solver.PrecondBlockJacobi3}, // 2 457 free DoFs
		{6, 6, solver.PrecondIC0},          // 2 709 free DoFs
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
