package main

import (
	"runtime"
	"sync"
	"time"

	morestress "repro"
)

// solveRec is one Engine.Solve as seen from outside the engine: the call's
// wall time plus the phase timings the public API returns.
type solveRec struct {
	Wall, LocalWait, Total, Global time.Duration
	RHS, Solve                     time.Duration // Solution.AssembleTime / SolveTime
	PrecondApply, PrecondBuild     time.Duration
	Iterations                     int
	CacheHit                       bool
	FieldSamples                   int
	Err                            bool
}

func (r solveRec) assemblyBuild() time.Duration { return max(r.Total-r.LocalWait-r.Global, 0) }
func (r solveRec) field() time.Duration         { return max(r.Global-r.RHS-r.Solve, 0) }
func (r solveRec) krylovOther() time.Duration {
	return max(r.Solve-r.PrecondApply-r.PrecondBuild, 0)
}

// phases lays the record out as derived child spans of the engine span.
func (r solveRec) phases() []phase {
	rom := "engine.rom_wait"
	if !r.CacheHit {
		rom = "rom.build"
	}
	return []phase{
		{name: "engine.slot_wait", d: r.Wall - r.Total},
		{name: rom, d: r.LocalWait},
		{name: "array.assembly_build", d: r.assemblyBuild()},
		{name: "array.rhs", d: r.RHS},
		{name: "solver.solve", d: r.Solve, children: []phase{
			{name: "solver.precond_build", d: r.PrecondBuild},
			{name: "solver.precond_apply", d: r.PrecondApply},
			{name: "solver.krylov_other", d: r.krylovOther()},
		}},
		{name: "rom.field", d: r.field()},
	}
}

// tracedSolver decorates a morestress.Solver: it records every Solve and,
// when tracing, an "engine.solve" span with the derived phase spans under
// it. The serving layer and the job queue are handed the decorator, so
// requests reach the engine through it exactly as they would the engine.
type tracedSolver struct {
	inner morestress.Solver
	tr    *Tracer
	// reqOf names the request a job belongs to, so the engine span joins
	// the spans of the same op.
	reqOf func(morestress.Job) int64

	mu   sync.Mutex
	recs []solveRec // guarded by mu
	// walls holds the engine call's wall time per request id.
	walls map[int64]time.Duration // guarded by mu
}

// lastWall is the wall time of the most recent Solve.
func (s *tracedSolver) lastWall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.recs) == 0 {
		return 0
	}
	return s.recs[len(s.recs)-1].Wall
}

// wallOf is the engine wall time of request req's Solve.
func (s *tracedSolver) wallOf(req int64) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.walls[req]
	return d, ok
}

func (s *tracedSolver) Solve(job morestress.Job) (*morestress.JobResult, error) {
	t0 := time.Now()
	res, err := s.inner.Solve(job)
	t1 := time.Now()
	rec := solveRec{Wall: t1.Sub(t0), Err: err != nil}
	if res != nil {
		rec.LocalWait, rec.Total, rec.CacheHit = res.LocalWait, res.Total, res.CacheHit
		if ar := res.Result; ar != nil {
			rec.Global = ar.GlobalTime
			rec.RHS, rec.Solve = ar.Solution.AssembleTime, ar.Solution.SolveTime
			rec.PrecondApply, rec.PrecondBuild = ar.Stats.PrecondApply, ar.Stats.PrecondBuild
			rec.Iterations = ar.Stats.Iterations
			if ar.VM != nil {
				rec.FieldSamples = len(ar.VM.V)
			}
		}
	}
	req := s.reqOf(job)
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	if req >= 0 {
		if s.walls == nil {
			s.walls = make(map[int64]time.Duration)
		}
		s.walls[req] += rec.Wall
	}
	s.mu.Unlock()
	if s.tr != nil && req >= 0 {
		id := s.tr.AddOrphan("engine.solve", req, t0, t1)
		s.tr.Seq(req, id, t0, rec.phases())
	}
	return res, err
}

// BatchSolve is part of the Solver surface; no workload sends /batch.
func (s *tracedSolver) BatchSolve(jobs []morestress.Job) *morestress.BatchResult {
	return s.inner.BatchSolve(jobs)
}

func (s *tracedSolver) Stats() morestress.EngineStats { return s.inner.Stats() }

// take returns the records so far and starts a new list.
func (s *tracedSolver) take() []solveRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.recs
	s.recs = nil
	return out
}

// diffStats returns the engine counters accumulated between two snapshots.
func diffStats(before, after morestress.EngineStats) morestress.EngineStats {
	d := after
	d.Cache.Hits -= before.Cache.Hits
	d.Cache.Misses -= before.Cache.Misses
	d.Assemblies -= before.Assemblies
	d.AssemblyHits -= before.AssemblyHits
	d.IterativeSolves -= before.IterativeSolves
	d.WarmStarts -= before.WarmStarts
	d.Refinements -= before.Refinements
	d.PrecisionFallbacks -= before.PrecisionFallbacks
	return d
}

// memSnap is the process allocation and GC state at one instant.
type memSnap struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	pauseNs             uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// engineLayers computes the per-layer figures of the rom, array, solver,
// engine and romcache layers. setup holds the set-up solves (cold builds),
// timed the solves of the timed phase, st the engine counters of the timed
// phase, m0/m1 the memory state around it.
func engineLayers(setup, timed []solveRec, st morestress.EngineStats, m0, m1 memSnap) map[string]float64 {
	var romBuild, asmBuild, pcBuild []float64
	for _, r := range append(append([]solveRec(nil), setup...), timed...) {
		if r.Err {
			continue
		}
		if !r.CacheHit {
			romBuild = append(romBuild, ms(r.LocalWait))
			asmBuild = append(asmBuild, ms(r.assemblyBuild()))
		}
		if r.PrecondBuild > 0 {
			pcBuild = append(pcBuild, ms(r.PrecondBuild))
		}
	}
	var field, rhs, solve, apply, other, slot, romWait, iters []float64
	var samples, misses int
	var fieldTime time.Duration
	for _, r := range timed {
		if r.Err {
			continue
		}
		field = append(field, ms(r.field()))
		rhs = append(rhs, ms(r.RHS))
		solve = append(solve, ms(r.Solve))
		apply = append(apply, ms(r.PrecondApply))
		other = append(other, ms(r.krylovOther()))
		slot = append(slot, ms(r.Wall-r.Total))
		romWait = append(romWait, ms(r.LocalWait))
		iters = append(iters, float64(r.Iterations))
		samples += r.FieldSamples
		fieldTime += r.field()
		if !r.CacheHit {
			misses++
		}
	}
	n := float64(max(len(timed), 1))
	out := map[string]float64{
		"rom.build_ms":                         median(romBuild),
		"rom.builds_per_op":                    float64(misses) / n,
		"rom.field_ms_per_scenario":            mean(field),
		"array.assembly_build_ms":              median(asmBuild),
		"array.rhs_ms_per_scenario":            mean(rhs),
		"array.solve_ms_per_scenario":          mean(solve),
		"array.assembly_hit_ratio":             ratio(st.AssemblyHits, st.AssemblyHits+st.Assemblies),
		"solver.iterations_per_scenario":       mean(iters),
		"solver.precond_apply_ms_per_scenario": mean(apply),
		"solver.krylov_other_ms_per_scenario":  mean(other),
		"solver.precond_build_ms":              median(pcBuild),
		"solver.warm_start_ratio":              ratio(st.WarmStarts, st.IterativeSolves),
		"solver.refinements":                   float64(st.Refinements),
		"solver.precision_fallbacks":           float64(st.PrecisionFallbacks),
		"engine.slot_wait_ms":                  mean(slot),
		"engine.rom_wait_ms":                   mean(romWait),
		"engine.alloc_mb_per_scenario":         float64(m1.totalAlloc-m0.totalAlloc) / (1 << 20) / n,
		"engine.allocs_per_scenario":           float64(m1.mallocs-m0.mallocs) / n,
		"romcache.hit_ratio":                   ratio(st.Cache.Hits, st.Cache.Hits+st.Cache.Misses),
		"runtime.gc_cycles":                    float64(m1.numGC - m0.numGC),
		"runtime.gc_pause_ms_total":            float64(m1.pauseNs-m0.pauseNs) / 1e6,
		"rom.field_samples_per_s":              0,
	}
	if fieldTime > 0 {
		out["rom.field_samples_per_s"] = float64(samples) / fieldTime.Seconds()
	}
	return out
}
