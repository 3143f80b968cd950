package morestress

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/array"
	"repro/internal/mesh"
	"repro/internal/solver"
)

// TestEnginePrecondCacheSharedAcrossScenarios: a ΔT sweep on one lattice
// builds the preconditioner exactly once; every other scenario hits the
// assembly's cache, and the engine counters expose the split.
func TestEnginePrecondCacheSharedAcrossScenarios(t *testing.T) {
	cfg := testConfig(15)
	// Constant ΔT maps, so every scenario runs a full iterative solve
	// (scaled unit solutions still consult the preconditioner, but the cold
	// solves make the assertion obvious).
	e := NewEngine(EngineOptions{Workers: 2})
	jobs := make([]Job, 5)
	for i := range jobs {
		dt := -50 * float64(i+1)
		jobs[i] = Job{Config: cfg, Rows: 2, Cols: 2, DeltaT: dt, DeltaTMap: coldMap(dt), Solver: SolveCG}
	}
	br := e.BatchSolve(jobs)
	if br.Stats.Errors != 0 {
		t.Fatalf("batch errors: %+v", br.Stats)
	}
	s := e.Stats()
	if s.PrecondBuilds != 1 {
		t.Errorf("precond builds = %d, want 1 (one lattice, one kind)", s.PrecondBuilds)
	}
	if s.PrecondHits != int64(len(jobs)-1) {
		t.Errorf("precond hits = %d, want %d", s.PrecondHits, len(jobs)-1)
	}
	shared := 0
	for _, r := range br.Results {
		if r.Result.Solution.PrecondShared {
			shared++
		}
	}
	if shared != len(jobs)-1 {
		t.Errorf("%d scenarios report a shared preconditioner, want %d", shared, len(jobs)-1)
	}
}

// TestEnginePrecondCacheDistinctPerKind: scenarios with different
// preconditioner kinds on one lattice each build once, then hit.
func TestEnginePrecondCacheDistinctPerKind(t *testing.T) {
	cfg := testConfig(15)
	e := NewEngine(EngineOptions{Workers: 1})
	kinds := []Precond{solver.PrecondBlockJacobi3, solver.PrecondIC0}
	var jobs []Job
	for round := 0; round < 2; round++ {
		for _, k := range kinds {
			jobs = append(jobs, Job{
				Config: cfg, Rows: 2, Cols: 2, DeltaT: -100, DeltaTMap: coldMap(-100),
				Solver: SolveCG, Options: SolverOptions{Precond: k},
			})
		}
	}
	br := e.BatchSolve(jobs)
	if br.Stats.Errors != 0 {
		t.Fatalf("batch errors: %+v", br.Stats)
	}
	s := e.Stats()
	if s.PrecondBuilds != int64(len(kinds)) {
		t.Errorf("precond builds = %d, want %d (one per kind)", s.PrecondBuilds, len(kinds))
	}
	if s.PrecondHits != int64(len(jobs)-len(kinds)) {
		t.Errorf("precond hits = %d, want %d", s.PrecondHits, len(jobs)-len(kinds))
	}
}

// TestEngineOrderingCounts: iterative solves tally under the ordering their
// preconditioner factored under — the lattice's two-ended order, whatever
// the job names, the reserved value of the deleted multicolor ordering
// included — every
// ordering of the factorizing kind shares one cache entry, and the counts
// sum to the iterative solve count.
func TestEngineOrderingCounts(t *testing.T) {
	cfg := testConfig(15)
	e := NewEngine(EngineOptions{Workers: 1})
	jobs := []Job{
		{Config: cfg, Rows: 2, Cols: 2, DeltaT: -100, DeltaTMap: coldMap(-100), Solver: SolveCG,
			Options: SolverOptions{Precond: solver.PrecondIC0, Ordering: 3}},
		{Config: cfg, Rows: 2, Cols: 2, DeltaT: -150, DeltaTMap: coldMap(-150), Solver: SolveCG,
			Options: SolverOptions{Precond: solver.PrecondIC0, Ordering: solver.OrderingAuto}},
		{Config: cfg, Rows: 2, Cols: 2, DeltaT: -200, DeltaTMap: coldMap(-200), Solver: SolveCG,
			Options: SolverOptions{Precond: solver.PrecondIC0, Ordering: solver.OrderingNatural}},
	}
	br := e.BatchSolve(jobs)
	if br.Stats.Errors != 0 {
		t.Fatalf("batch errors: %+v", br.Stats)
	}
	s := e.Stats()
	if len(s.OrderingCounts) != 1 || s.OrderingCounts["two-ended"] != 3 {
		t.Errorf("ordering counts = %v, want {two-ended: 3}", s.OrderingCounts)
	}
	var total int64
	for _, n := range s.OrderingCounts {
		total += n
	}
	if total != s.IterativeSolves {
		t.Errorf("ordering counts sum %d != iterative solves %d", total, s.IterativeSolves)
	}
	// Every ordering of IC0 on one lattice is the one cache entry.
	if s.PrecondBuilds != 1 || s.PrecondHits != 2 {
		t.Errorf("builds/hits = %d/%d, want 1/2 (one factor for every ordering)", s.PrecondBuilds, s.PrecondHits)
	}
	for _, r := range br.Results {
		res := r.Result
		if !res.Iterative() {
			t.Fatal("expected iterative results")
		}
		if res.Solution.Ordering != res.Solution.Stats.Ordering {
			t.Errorf("Solution.Ordering %v != Stats.Ordering %v", res.Solution.Ordering, res.Solution.Stats.Ordering)
		}
	}
}

// TestEngineBatchThenSolveShareOneFactor: a lattice solved through
// BatchSolve, whose concurrent jobs each get a share of the cores, and then
// through Engine.Solve, which gets them all, holds one IC0 factor and gives
// one answer. The 1×48 strip of the served (5,5,5) coarse cell (4 797 free
// DoFs, above the size where the deleted multicolor ordering used to take
// over) factors in its two-ended order on every path.
func TestEngineBatchThenSolveShareOneFactor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := DefaultConfig(15)
	cfg.Resolution = mesh.CoarseResolution()
	hotspot := func(col float64) func(int, int) float64 {
		return func(row, c int) float64 {
			dr, dc := float64(row)-0.5, float64(c)-col
			return -250 + 100*math.Exp(-(dr*dr+dc*dc)/8)
		}
	}
	jobs := []Job{
		{Config: cfg, Rows: 1, Cols: 48, DeltaT: -250, DeltaTMap: hotspot(12)},
		{Config: cfg, Rows: 1, Cols: 48, DeltaT: -250, DeltaTMap: hotspot(30)},
	}
	e := NewEngine(EngineOptions{Workers: 2})
	br := e.BatchSolve(jobs)
	if br.Stats.Errors != 0 {
		t.Fatalf("batch errors: %+v", br.Stats)
	}
	solo, err := e.Solve(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.PrecondBuilds != 1 {
		t.Errorf("precond builds = %d, want 1 (one lattice, one factor)", s.PrecondBuilds)
	}
	if len(s.OrderingCounts) != 1 || s.OrderingCounts["two-ended"] != 3 {
		t.Errorf("ordering counts = %v, want {two-ended: 3}", s.OrderingCounts)
	}
	q, ref := solo.Result.Solution.Q, br.Results[0].Result.Solution.Q
	diffs := 0
	for i := range ref {
		if math.Float64bits(q[i]) != math.Float64bits(ref[i]) {
			diffs++
		}
	}
	if diffs != 0 || len(q) != len(ref) {
		t.Errorf("Engine.Solve and BatchSolve answers differ in %d of %d Q entries", diffs, len(ref))
	}
}

// TestEnginePrecondCacheInvalidatedWithAssembly: the preconditioner lives on
// the Assembly, so evicting the assembly (MaxAssemblies exceeded) drops it
// and the next scenario on that lattice rebuilds both.
func TestEnginePrecondCacheInvalidatedWithAssembly(t *testing.T) {
	cfg := testConfig(15)
	e := NewEngine(EngineOptions{Workers: 1, MaxAssemblies: 1})
	lattices := [][2]int{{2, 2}, {2, 3}}
	// Alternate lattices: with room for one assembly, every solve evicts the
	// other lattice's assembly (and its cached preconditioner).
	for round := 0; round < 2; round++ {
		for _, dims := range lattices {
			if _, err := e.Solve(Job{Config: cfg, Rows: dims[0], Cols: dims[1], DeltaT: -100, DeltaTMap: coldMap(-100), Solver: SolveCG}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := e.Stats()
	if s.PrecondHits != 0 {
		t.Errorf("precond hits = %d, want 0 (every assembly was evicted between uses)", s.PrecondHits)
	}
	if s.PrecondBuilds != 4 {
		t.Errorf("precond builds = %d, want 4", s.PrecondBuilds)
	}
	// Same layout with room for both lattices: second round is all hits.
	e = NewEngine(EngineOptions{Workers: 1, MaxAssemblies: 4})
	for round := 0; round < 2; round++ {
		for _, dims := range lattices {
			if _, err := e.Solve(Job{Config: cfg, Rows: dims[0], Cols: dims[1], DeltaT: -100, DeltaTMap: coldMap(-100), Solver: SolveCG}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s = e.Stats()
	if s.PrecondBuilds != 2 || s.PrecondHits != 2 {
		t.Errorf("builds/hits = %d/%d, want 2/2", s.PrecondBuilds, s.PrecondHits)
	}
}

// TestEngineDirectFactorCountsInAssemblyBytes: a Direct job's Cholesky
// factor lives on its lattice's assembly and counts against AssemblyBytes.
// Two lattices whose bare assemblies fit the budget together no longer do
// once factored, so alternating Direct solves between them refactor every
// time; with room for both factors, the second round reuses them.
func TestEngineDirectFactorCountsInAssemblyBytes(t *testing.T) {
	cfg := testConfig(15)
	lattices := [][2]int{{2, 2}, {2, 3}}
	e := NewEngine(EngineOptions{Workers: 1})
	r, _, err := e.cache.Get(cfg.romSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	var bare, factored int64
	for _, dims := range lattices {
		p := globalProblem(r, dims[0], dims[1], -100, nil, array.Direct, SolverOptions{}, 1)
		asm, err := array.NewAssembly(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		bare += asm.MemoryBytes()
		p.Assembly = asm
		if _, err := array.Solve(p); err != nil {
			t.Fatal(err)
		}
		factored += asm.MemoryBytes()
	}
	for _, c := range []struct {
		budget               int64
		factorizations, hits int64
	}{
		{bare, 4, 0},
		{factored, 2, 2},
	} {
		e := NewEngine(EngineOptions{Workers: 1, AssemblyBytes: c.budget, SharedCache: e.cache})
		for round := 0; round < 2; round++ {
			for _, dims := range lattices {
				if _, err := e.Solve(Job{Config: cfg, Rows: dims[0], Cols: dims[1], DeltaT: -100, Solver: SolveDirect}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if s := e.Stats(); s.Factorizations != c.factorizations || s.FactorHits != c.hits {
			t.Errorf("budget %d B: factorizations/hits = %d/%d, want %d/%d", c.budget, s.Factorizations, s.FactorHits, c.factorizations, c.hits)
		}
	}
}
