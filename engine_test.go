package morestress

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestEngineBatchSharesROM(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 4})
	cfg := testConfig(15)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{
			Config: cfg, Rows: 2, Cols: 2,
			DeltaT:      -250 + 10*float64(i),
			GridSamples: 4,
		}
	}
	br := e.BatchSolve(jobs)
	if br.Stats.Errors != 0 {
		for _, r := range br.Results {
			if r.Err != nil {
				t.Fatalf("job %d: %v", r.Index, r.Err)
			}
		}
	}
	// All 8 jobs share one unit cell: exactly one local stage, 7 hits.
	if br.Stats.CacheMisses != 1 || br.Stats.CacheHits != 7 {
		t.Errorf("cache misses/hits = %d/%d, want 1/7", br.Stats.CacheMisses, br.Stats.CacheHits)
	}
	for i, r := range br.Results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if !r.Result.Stats.Converged {
			t.Errorf("job %d did not converge", i)
		}
		if r.Result.VM == nil || r.Result.VM.NX != 8 {
			t.Errorf("job %d: missing or mis-sized field", i)
		}
	}
	// Heavier loads produce larger stresses: |ΔT| decreases with i here.
	if m0, m7 := br.Results[0].Result.VM.Max(), br.Results[7].Result.VM.Max(); m0 <= m7 {
		t.Errorf("VM max not monotone in |ΔT|: %g (ΔT=-250) vs %g (ΔT=-180)", m0, m7)
	}
	s := e.Stats()
	if s.JobsDone != 8 || s.JobsFailed != 0 {
		t.Errorf("engine counters = %+v", s)
	}
}

// TestEngineConcurrentSingleflight hammers one engine from many goroutines
// with the same unit cell and checks the local stage ran exactly once
// (exercised under -race by CI).
func TestEngineConcurrentSingleflight(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 8})
	cfg := testConfig(15)
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Solve(Job{Config: cfg, Rows: 1, Cols: 2, DeltaT: -100 - float64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	s := e.Stats()
	if s.Cache.Misses != 1 {
		t.Errorf("local stage ran %d times under %d concurrent solves, want 1", s.Cache.Misses, callers)
	}
	if s.Cache.Hits != callers-1 {
		t.Errorf("cache hits = %d, want %d", s.Cache.Hits, callers-1)
	}
}

func TestEngineDirectSharesFactorization(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 2})
	cfg := testConfig(15)
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Config: cfg, Rows: 2, Cols: 2, DeltaT: -50 * float64(i+1), Solver: SolveDirect}
	}
	br := e.BatchSolve(jobs)
	for _, r := range br.Results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.Index, r.Err)
		}
	}
	s := e.Stats()
	if s.Factorizations != 1 {
		t.Errorf("factorizations = %d, want 1 (same lattice, ΔT sweep)", s.Factorizations)
	}
	if s.FactorHits != 3 {
		t.Errorf("factor hits = %d, want 3", s.FactorHits)
	}

	// The shared-factor Direct solution must agree with an independent
	// GMRES solve of the same scenario.
	ref, err := e.Solve(Job{Config: cfg, Rows: 2, Cols: 2, DeltaT: -100, GridSamples: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := e.Solve(Job{Config: cfg, Rows: 2, Cols: 2, DeltaT: -100, GridSamples: 5, Solver: SolveDirect})
	if err != nil {
		t.Fatal(err)
	}
	rm, dm := ref.Result.VM.Max(), dir.Result.VM.Max()
	if rel := math.Abs(rm-dm) / rm; rel > 1e-6 {
		t.Errorf("Direct vs GMRES VM max differ: %g vs %g (rel %g)", dm, rm, rel)
	}
}

func TestEngineBadJobDoesNotAbortBatch(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 2})
	cfg := testConfig(15)
	br := e.BatchSolve([]Job{
		{Config: cfg, Rows: 0, Cols: 2, DeltaT: -100},
		{Config: cfg, Rows: 1, Cols: 1, DeltaT: -100},
	})
	if br.Results[0].Err == nil {
		t.Error("zero-row job succeeded")
	}
	if br.Results[1].Err != nil {
		t.Errorf("good job failed: %v", br.Results[1].Err)
	}
	if br.Stats.Errors != 1 || br.Stats.Jobs != 2 {
		t.Errorf("stats = %+v", br.Stats)
	}
}

// TestLoadModelCorruptDummy is the regression test for the LoadModel error
// swallowing: a model whose dummy ROM record is truncated must fail to load
// rather than silently dropping the dummy, while a model saved without a
// dummy still loads cleanly.
func TestLoadModelCorruptDummy(t *testing.T) {
	m, err := BuildModelWithDummy(testConfig(15))
	if err != nil {
		t.Fatal(err)
	}

	var noDummy bytes.Buffer
	if err := m.TSV.Save(&noDummy); err != nil {
		t.Fatal(err)
	}
	tsvLen := noDummy.Len()
	loaded, err := LoadModel(bytes.NewReader(noDummy.Bytes()))
	if err != nil {
		t.Fatalf("model without dummy failed to load: %v", err)
	}
	if loaded.Dummy != nil {
		t.Error("phantom dummy after dummy-less save")
	}

	var full bytes.Buffer
	if err := m.Save(&full); err != nil {
		t.Fatal(err)
	}
	if full.Len() <= tsvLen {
		t.Fatal("dummy ROM added no bytes; truncation test is vacuous")
	}
	cut := tsvLen + (full.Len()-tsvLen)/2 // mid-dummy truncation
	if _, err := LoadModel(bytes.NewReader(full.Bytes()[:cut])); err == nil {
		t.Fatal("truncated dummy ROM loaded without error")
	} else if !strings.Contains(err.Error(), "dummy") {
		t.Errorf("error does not identify the dummy record: %v", err)
	}

	// Round-trip sanity: the intact stream restores both ROMs.
	restored, err := LoadModel(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Dummy == nil {
		t.Error("dummy ROM lost in round-trip")
	}
}

// coldMap states a uniform load dt as a constant ΔT map. The engine never
// scales a map from its lattice's unit-load solution, so a job carrying one
// solves its own right-hand side from zero: the cold reference of the
// unit-solution reuse.
func coldMap(dt float64) func(int, int) float64 {
	return func(int, int) float64 { return dt }
}

// TestEngineWarmStartSweepMatchesCold is the correctness contract of the
// unit-solution reuse: a ΔT sweep (in scrambled ΔT order) answered as ΔT
// times one cached unit-load solution must reproduce the cold solutions of
// the same loads stated as constant ΔT maps to rounding, while doing
// measurably less iterative work on one shared assembly.
func TestEngineWarmStartSweepMatchesCold(t *testing.T) {
	cfg := testConfig(15)
	loads := []float64{-150, -250, -50, -200, -100, -300} // scrambled
	sweep := func(cold bool) []Job {
		jobs := make([]Job, len(loads))
		for i, dt := range loads {
			jobs[i] = Job{
				Config: cfg, Rows: 3, Cols: 3, DeltaT: dt,
				GridSamples: 6, Solver: SolveCG,
				Options: SolverOptions{Tol: 1e-10},
			}
			if cold {
				jobs[i].DeltaTMap = coldMap(dt)
			}
		}
		return jobs
	}

	warmE := NewEngine(EngineOptions{Workers: 2})
	coldE := NewEngine(EngineOptions{Workers: 2})
	warm := warmE.BatchSolve(sweep(false))
	cold := coldE.BatchSolve(sweep(true))
	if warm.Stats.Errors != 0 || cold.Stats.Errors != 0 {
		t.Fatalf("sweep errors: warm %d, cold %d", warm.Stats.Errors, cold.Stats.Errors)
	}

	for i := range warm.Results {
		wq, cq := warm.Results[i].Result.Solution.Q, cold.Results[i].Result.Solution.Q
		var num, den float64
		for k := range cq {
			d := wq[k] - cq[k]
			num += d * d
			den += cq[k] * cq[k]
		}
		if rel := math.Sqrt(num / den); !(rel <= 1e-12) {
			t.Errorf("job %d (ΔT=%g): warm Q deviates from cold by %.3g relative", i, loads[i], rel)
		}
	}

	if warm.Stats.WarmStarts != len(warm.Results)-1 {
		t.Errorf("warm starts = %d, want %d (all but the job that solved the unit load)", warm.Stats.WarmStarts, len(warm.Results)-1)
	}
	if cold.Stats.WarmStarts != 0 {
		t.Errorf("cold engine warm-started %d solves", cold.Stats.WarmStarts)
	}
	if warm.Stats.Iterations >= cold.Stats.Iterations {
		t.Errorf("warm sweep took %d total iterations, cold %d — warm must be fewer", warm.Stats.Iterations, cold.Stats.Iterations)
	}
	t.Logf("total PCG iterations: warm %d vs cold %d", warm.Stats.Iterations, cold.Stats.Iterations)

	ws, cs := warmE.Stats(), coldE.Stats()
	if ws.Assemblies != 1 || cs.Assemblies != 1 {
		t.Errorf("assemblies = %d warm / %d cold, want 1 each (one lattice)", ws.Assemblies, cs.Assemblies)
	}
	if ws.AssemblyHits != int64(len(warm.Results)-1) {
		t.Errorf("assembly hits = %d, want %d", ws.AssemblyHits, len(warm.Results)-1)
	}
	if rate := float64(ws.WarmStarts) / float64(ws.IterativeSolves); rate <= 0.5 {
		t.Errorf("warm-start hit rate %.2f, want > 0.5", rate)
	}
}

// TestEngineWarmStartAcrossSolveCalls checks the unit-solution reuse works
// outside BatchSolve too: sequential Engine.Solve calls on one lattice (the
// async job queue's access pattern) share one unit-load solution, and a
// different lattice never reuses a foreign one.
func TestEngineWarmStartAcrossSolveCalls(t *testing.T) {
	cfg := testConfig(15)
	e := NewEngine(EngineOptions{Workers: 1})
	first, err := e.Solve(Job{Config: cfg, Rows: 2, Cols: 3, DeltaT: -100, Solver: SolveCG})
	if err != nil {
		t.Fatal(err)
	}
	if first.Result.Stats.Warm {
		t.Error("first solve on a lattice cannot be warm")
	}
	second, err := e.Solve(Job{Config: cfg, Rows: 2, Cols: 3, DeltaT: -200, Solver: SolveCG})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Result.Stats.Warm {
		t.Error("second solve on the lattice should be scaled from the first's unit solution")
	}
	if second.Result.Stats.Iterations > first.Result.Stats.Iterations {
		t.Errorf("warm solve took %d iterations vs %d cold", second.Result.Stats.Iterations, first.Result.Stats.Iterations)
	}
	other, err := e.Solve(Job{Config: cfg, Rows: 3, Cols: 2, DeltaT: -200, Solver: SolveCG})
	if err != nil {
		t.Fatal(err)
	}
	if other.Result.Stats.Warm {
		t.Error("a different lattice must not reuse a foreign unit solution")
	}
	// Nonuniform (DeltaTMap) jobs solve their own right-hand side cold.
	hot, err := e.Solve(Job{Config: cfg, Rows: 2, Cols: 3, DeltaT: -100,
		DeltaTMap: func(r, c int) float64 { return -100 * float64(1+r+c) }, Solver: SolveCG})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Result.Stats.Warm {
		t.Error("nonuniform-ΔT solve must run cold")
	}
	if s := e.Stats(); s.Assemblies != 2 {
		t.Errorf("assemblies = %d, want 2 (two lattices)", s.Assemblies)
	}
}

// TestEngineZeroLoadAnswersCold: a ΔT = 0 job is solved, not scaled, on a
// lattice whose unit-load solution is cached or not, and answers as a cold
// solve of the zero load does: an all-+0 Q, residual 0, not warm.
func TestEngineZeroLoadAnswersCold(t *testing.T) {
	cfg := testConfig(15)
	e := NewEngine(EngineOptions{Workers: 1})
	zero := Job{Config: cfg, Rows: 2, Cols: 3, DeltaT: 0}
	before, err := e.Solve(zero)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(Job{Config: cfg, Rows: 2, Cols: 3, DeltaT: -100}); err != nil {
		t.Fatal(err)
	}
	after, err := e.Solve(zero)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*JobResult{"before the unit solve": before, "after it": after} {
		st := r.Result.Stats
		if st.Warm || st.Residual != 0 || !st.Converged {
			t.Errorf("ΔT=0 %s: stats %+v, want cold, converged, residual 0", name, st)
		}
		for k, v := range r.Result.Solution.Q {
			if math.Float64bits(v) != 0 {
				t.Fatalf("ΔT=0 %s: Q[%d] = %v, want +0", name, k, v)
			}
		}
	}
}

// TestEngineDirectSharesAssembly checks Direct jobs ride the assemble-once
// cache alongside their shared factorization.
func TestEngineDirectSharesAssembly(t *testing.T) {
	cfg := testConfig(15)
	e := NewEngine(EngineOptions{Workers: 2})
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Config: cfg, Rows: 2, Cols: 2, DeltaT: -60 * float64(i+1), Solver: SolveDirect}
	}
	br := e.BatchSolve(jobs)
	if br.Stats.Errors != 0 {
		t.Fatalf("batch errors: %+v", br.Stats)
	}
	s := e.Stats()
	if s.Assemblies != 1 {
		t.Errorf("assemblies = %d, want 1", s.Assemblies)
	}
	if s.Factorizations != 1 {
		t.Errorf("factorizations = %d, want 1", s.Factorizations)
	}
	for i, r := range br.Results {
		if !r.Result.Solution.AssemblyShared {
			t.Errorf("job %d did not use the shared assembly", i)
		}
	}
}
