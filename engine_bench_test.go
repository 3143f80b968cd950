package morestress

import (
	"math"
	"testing"

	"repro/internal/solver"
)

// BenchmarkBatchEngine measures a warm-cache batch of 8 identical-spec
// scenarios: after the first build, every job must skip the local stage
// (the benchmark fails if any warm job re-runs it), so the timing is pure
// global stage + scheduling overhead.
func BenchmarkBatchEngine(b *testing.B) {
	e := NewEngine(EngineOptions{Workers: 4})
	cfg := testConfig(15)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Config: cfg, Rows: 3, Cols: 3, DeltaT: -250 + 5*float64(i)}
	}
	if _, err := e.Solve(jobs[0]); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := e.BatchSolve(jobs)
		if br.Stats.Errors != 0 {
			b.Fatalf("batch errors: %+v", br.Stats)
		}
		if br.Stats.CacheMisses != 0 {
			b.Fatalf("warm batch re-ran the local stage %d times", br.Stats.CacheMisses)
		}
	}
	b.StopTimer()
	s := e.Stats()
	b.ReportMetric(float64(s.Cache.Hits)/float64(s.Cache.Hits+s.Cache.Misses), "hit-rate")
}

// BenchmarkBatchEngineColdBuild is the contrast case: each iteration uses a
// fresh engine, so the batch pays one full local stage before the 7 hits.
// Comparing against BenchmarkBatchEngine isolates the cache-hit speedup.
func BenchmarkBatchEngineColdBuild(b *testing.B) {
	cfg := testConfig(15)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Config: cfg, Rows: 3, Cols: 3, DeltaT: -250 + 5*float64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(EngineOptions{Workers: 4})
		br := e.BatchSolve(jobs)
		if br.Stats.Errors != 0 || br.Stats.CacheMisses != 1 {
			b.Fatalf("cold batch stats: %+v", br.Stats)
		}
	}
}

// BenchmarkEngineDirectSweep measures a ΔT sweep under the Direct solver,
// where the engine shares one Cholesky factorization across the batch.
func BenchmarkEngineDirectSweep(b *testing.B) {
	e := NewEngine(EngineOptions{Workers: 4})
	cfg := testConfig(15)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Config: cfg, Rows: 3, Cols: 3, DeltaT: -30 * float64(i+1), Solver: SolveDirect}
	}
	if _, err := e.Solve(jobs[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := e.BatchSolve(jobs)
		if br.Stats.Errors != 0 {
			b.Fatalf("batch errors: %+v", br.Stats)
		}
	}
	b.StopTimer()
	s := e.Stats()
	if s.Factorizations != 1 {
		b.Fatalf("factorizations = %d, want 1", s.Factorizations)
	}
	b.ReportMetric(float64(s.FactorHits), "factor-hits")
}

// BenchmarkEngineHotspotSolve is the Krylov-bound steady state the serving
// path runs on a large lattice: one warm engine (ROM, assembly and IC0
// factor cached) solving 10×10 scenarios whose per-block ΔT maps rotate
// through four off-centre hotspots. A ΔT map is not a multiple of the unit
// load, so every op is a full default-solver (GMRES) solve from zero; the
// bench fails if the solve resolves to a preconditioner other than IC0, so
// it keeps measuring the IC0 path.
func BenchmarkEngineHotspotSolve(b *testing.B) {
	const dim = 10
	e := NewEngine(EngineOptions{})
	cfg := testConfig(15)
	var maps [4]func(row, col int) float64
	for i := range maps {
		r0, c0 := float64(1+2*i), float64(dim-2-i)
		maps[i] = func(row, col int) float64 {
			dr, dc := float64(row)-r0, float64(col)-c0
			return -250 + 120*math.Exp(-(dr*dr+dc*dc)/8)
		}
	}
	job := func(i int) Job {
		return Job{Config: cfg, Rows: dim, Cols: dim, DeltaT: -250, DeltaTMap: maps[i%len(maps)]}
	}
	res, err := e.Solve(job(0)) // warm the ROM, assembly and factor caches
	if err != nil {
		b.Fatal(err)
	}
	if got := res.Result.Solution.Stats.Precond; got != solver.PrecondIC0 {
		b.Fatalf("%d free DoFs resolved to %v, want IC0", len(res.Result.Solution.QFree), got)
	}
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Solve(job(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Result.Solution.Stats.Warm {
			b.Fatal("a ΔT-map solve was warm-started")
		}
		iters += res.Result.Solution.Stats.Iterations
	}
	b.StopTimer()
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	b.ReportMetric(float64(len(res.Result.Solution.QFree)), "free-dofs")
}
