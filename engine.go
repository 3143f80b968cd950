package morestress

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/romcache"
	"repro/internal/solver"
)

// SolverChoice selects the global-stage solver of a batch job.
type SolverChoice int

const (
	// SolveGMRES is the paper's recommendation (default).
	SolveGMRES SolverChoice = iota
	// SolveCG uses preconditioned conjugate gradients on the SPD global
	// matrix (the preconditioner comes from Job.Options.Precond, default
	// auto-selected).
	SolveCG
	// SolveDirect factors the reduced global matrix with sparse Cholesky.
	// Under the Engine, repeated Direct jobs on the same unit cell, array
	// size, and boundary condition share one factorization, cached on the
	// lattice's assembly, so batches of load sweeps pay it once.
	SolveDirect
)

// Job describes one scenario for the batch engine: which unit cell (and
// therefore which ROM), the array dimensions, the thermal load, and the
// global solver. Jobs with equal unit-cell configurations share one ROM, and
// jobs on the same lattice additionally share one reduced-global assembly.
type Job struct {
	// Config is the unit-cell configuration; its ROM is obtained from the
	// engine cache (the local stage runs only on the first use).
	Config Config
	// Rows, Cols are the array dimensions in blocks.
	Rows, Cols int
	// DeltaT is the thermal load in °C.
	DeltaT float64
	// DeltaTMap optionally overrides DeltaT per block, indexed (row, col).
	DeltaTMap func(row, col int) float64
	// GridSamples is the per-block mid-plane sampling resolution
	// (0 disables field sampling).
	GridSamples int
	// Solver selects the global solver.
	Solver SolverChoice
	// Options tunes the iterative solvers, including the preconditioner
	// (Options.Precond, default PrecondAuto).
	Options SolverOptions
}

// JobResult is the outcome of one batch job.
type JobResult struct {
	// Index is the job's position in the BatchSolve input.
	Index int
	// Err is the job's failure, nil on success. Failures are per-job: one
	// bad job does not abort the batch.
	Err error
	// Result is the solved array (nil when Err is set).
	Result *ArrayResult
	// CacheHit reports whether the job's ROM came from the cache (memory,
	// disk, or an in-flight build) instead of running the local stage.
	CacheHit bool
	// LocalWait is the time spent obtaining the ROM: the full local stage
	// on a cache miss, near zero on a hit.
	LocalWait time.Duration
	// Total is the job's wall time (ROM wait + global stage).
	Total time.Duration
}

// BatchStats aggregates a BatchSolve call.
type BatchStats struct {
	// Jobs is the number of jobs submitted; Errors counts failures.
	Jobs, Errors int
	// CacheHits/CacheMisses partition the jobs by ROM cache outcome.
	CacheHits, CacheMisses int
	// Wall is the batch wall time across the worker pool.
	Wall time.Duration
	// LocalTime and GlobalTime are the per-job times summed over the
	// batch (CPU-time-like; they exceed Wall under concurrency).
	LocalTime, GlobalTime time.Duration
	// Iterations sums the iterative global-solve iteration counts of the
	// batch; WarmStarts counts the uniform-ΔT answers scaled from their
	// lattice's cached unit-load solution instead of solved. Together they
	// quantify the warm-start payoff of a ΔT sweep.
	Iterations int64
	WarmStarts int
}

// BatchResult is the outcome of a BatchSolve call.
type BatchResult struct {
	// Results holds one entry per job, in input order.
	Results []JobResult
	// Stats aggregates the batch.
	Stats BatchStats
}

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Workers bounds the number of concurrently solving jobs
	// (default GOMAXPROCS).
	Workers int
	// CacheBytes is the in-memory ROM cache byte budget: models are
	// admitted against the sum of their MemoryBytes, so one huge lattice
	// cannot evict a whole working set of small ones. When both CacheBytes
	// and CacheEntries are zero the budget defaults to
	// romcache.DefaultMaxBytes (2 GiB).
	CacheBytes int64
	// CacheEntries optionally caps the ROM cache by model count on top of
	// the byte budget (0 = no entry cap).
	CacheEntries int
	// CacheDir enables disk spill of built ROMs (empty disables).
	CacheDir string
	// MaxAssemblies bounds the shared assemble-once cache of reduced
	// global systems by entry count (default 16). Every solver kind uses
	// it: a ΔT sweep on one lattice assembles the global matrix once.
	MaxAssemblies int
	// AssemblyBytes additionally bounds the assembly cache by the sum of
	// the assemblies' MemoryBytes, which count everything cached on them:
	// preconditioners, Cholesky factors, unit-load solutions and their
	// fields (0 = entry-count bound only).
	AssemblyBytes int64
	// SharedCache, when non-nil, is used as the engine's ROM cache instead
	// of building a private one (CacheBytes/CacheEntries/CacheDir are then
	// ignored). The ROM cache is content-addressed and shard-agnostic, so
	// in-process engine shards share one: each distinct unit cell pays the
	// local stage once per process, while the lattice-keyed assembly cache
	// (with the preconditioners, factors and unit-load solutions on each
	// assembly) stays private per shard.
	SharedCache *romcache.Cache
}

// EngineStats is a snapshot of an engine's lifetime counters.
type EngineStats struct {
	// Cache reports the ROM cache.
	Cache romcache.Stats
	// JobsDone and JobsFailed count completed jobs since engine creation.
	JobsDone, JobsFailed int64
	// Factorizations counts Cholesky factorizations performed for
	// SolveDirect jobs; FactorHits counts Direct solves that reused the one
	// cached on their lattice's Assembly.
	Factorizations, FactorHits int64
	// Assemblies counts reduced-global assemblies built; AssemblyHits
	// counts solves that reused a cached one instead of re-scattering the
	// global matrix.
	Assemblies, AssemblyHits int64
	// IterativeSolves counts global GMRES/PCG answers. WarmStarts of them
	// were scaled from the lattice's cached unit-load solution instead of
	// solved. The warm-start hit rate is WarmStarts / IterativeSolves.
	IterativeSolves, WarmStarts int64
	// Iterations sums the iteration counts of the iterative solves.
	Iterations int64
	// PrecondBuilds counts preconditioner constructions for iterative
	// solves; PrecondHits counts solves that reused one cached on the
	// lattice's Assembly. A preconditioner is built at most once per
	// (lattice, PrecondKind, Precision), with the auto values resolved
	// first, so warm-cache scenarios are all hits and default-option
	// traffic builds one IC0 factor per lattice (two after a float32 stall:
	// the float64 retry factor).
	PrecondBuilds, PrecondHits int64
	// OrderingCounts tallies iterative solves by the symmetric ordering
	// their preconditioner factored under (keys are the
	// solver.OrderingKind spellings: IC0 solves count as "two-ended", the
	// other kinds as "natural").
	// Orderings that never ran are omitted.
	OrderingCounts map[string]int64
	// PrecisionCounts tallies iterative solves by the storage precision of
	// their preconditioner factor (keys are the solver.Precision spellings:
	// "float64", "float32"). Precisions that never ran are omitted.
	PrecisionCounts map[string]int64
	// PrecisionFallbacks counts solves (GMRES or PCG) that stalled under a
	// float32 factor and were retried against a float64 one.
	PrecisionFallbacks int64
	// Refinements is always zero; the frozen e2ebench harness reads it.
	Refinements int64
}

// Merge adds o's counters into s, including the ROM cache section and the
// per-ordering tallies. The sharded router uses it to present N engines as
// one: the merged snapshot is what a single engine serving the union of the
// shards' traffic would have reported. Callers whose shards share one ROM
// cache should zero o.Cache on all but one shard first, or every engine
// re-reports the same cache.
func (s *EngineStats) Merge(o EngineStats) {
	s.Cache.Hits += o.Cache.Hits
	s.Cache.Misses += o.Cache.Misses
	s.Cache.DiskHits += o.Cache.DiskHits
	s.Cache.Evictions += o.Cache.Evictions
	s.Cache.BuildTime += o.Cache.BuildTime
	s.Cache.Entries += o.Cache.Entries
	s.Cache.Bytes += o.Cache.Bytes
	s.Cache.MaxBytes += o.Cache.MaxBytes
	s.Cache.SpillSkips += o.Cache.SpillSkips
	s.Cache.DiskCorrupt += o.Cache.DiskCorrupt
	s.Cache.Swept += o.Cache.Swept
	s.JobsDone += o.JobsDone
	s.JobsFailed += o.JobsFailed
	s.Factorizations += o.Factorizations
	s.FactorHits += o.FactorHits
	s.Assemblies += o.Assemblies
	s.AssemblyHits += o.AssemblyHits
	s.IterativeSolves += o.IterativeSolves
	s.WarmStarts += o.WarmStarts
	s.Iterations += o.Iterations
	s.PrecondBuilds += o.PrecondBuilds
	s.PrecondHits += o.PrecondHits
	s.PrecisionFallbacks += o.PrecisionFallbacks
	for k, n := range o.OrderingCounts {
		if s.OrderingCounts == nil {
			s.OrderingCounts = make(map[string]int64)
		}
		s.OrderingCounts[k] += n
	}
	for k, n := range o.PrecisionCounts {
		if s.PrecisionCounts == nil {
			s.PrecisionCounts = make(map[string]int64)
		}
		s.PrecisionCounts[k] += n
	}
}

// Solver is the batch-solve surface shared by Engine and the sharded
// router: the HTTP serving layer and the async job queue are written
// against it, so one process can serve from a single engine or from N
// lattice-sharded engines without the front end knowing.
type Solver interface {
	Solve(Job) (*JobResult, error)
	BatchSolve([]Job) *BatchResult
	Stats() EngineStats
}

// Engine is a concurrent batch-solve front end over the ROM machinery: it
// schedules scenario jobs on a bounded worker pool, shares cached ROMs so
// each distinct unit cell pays the one-shot local stage once (even under
// concurrent submission, via singleflight), assembles the reduced global
// matrix once per lattice (shared by every solver kind, with the
// preconditioners of iterative solves and the sparse Cholesky factor of
// Direct solves cached on the same snapshot — each built at most once per
// lattice and kind), and answers uniform-ΔT iterative jobs as ΔT times one
// unit-load solution cached per lattice, so an answer never depends on
// what its lattice solved before. The Workers bound holds across every
// entry point: concurrent Solve calls and overlapping BatchSolve calls
// together never run more than Workers jobs at once. An Engine is safe for concurrent use; create one and reuse it.
type Engine struct {
	opt        EngineOptions
	cache      *romcache.Cache
	assemblies *array.OnceMap[string, *array.Assembly]
	// sem is the engine-wide job bound: every solve holds one slot, so
	// Solve and BatchSolve share the same Workers budget.
	sem chan struct{}

	jobsDone, jobsFailed        atomic.Int64
	asmBuilds, asmHits          atomic.Int64
	factorBuilds, factorHits    atomic.Int64
	iterativeSolves, warmStarts atomic.Int64
	iterations                  atomic.Int64
	precondBuilds, precondHits  atomic.Int64
	orderingCounts              [solver.NumOrderings]atomic.Int64
	precisionCounts             [solver.NumPrecisions]atomic.Int64
	precisionFallbacks          atomic.Int64
}

// NewEngine creates an engine. A zero EngineOptions is valid.
func NewEngine(opt EngineOptions) *Engine {
	if opt.Workers <= 0 {
		opt.Workers = solver.DefaultWorkers()
	}
	if opt.MaxAssemblies <= 0 {
		opt.MaxAssemblies = 16
	}
	cache := opt.SharedCache
	if cache == nil {
		cache = romcache.New(romcache.Options{
			MaxBytes:   opt.CacheBytes,
			MaxEntries: opt.CacheEntries,
			Dir:        opt.CacheDir,
		})
	}
	return &Engine{
		opt:   opt,
		cache: cache,
		assemblies: &array.OnceMap[string, *array.Assembly]{
			Max: opt.MaxAssemblies, MaxBytes: opt.AssemblyBytes,
			Size: (*array.Assembly).MemoryBytes,
		},
		sem: make(chan struct{}, opt.Workers),
	}
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() EngineStats {
	orderings := make(map[string]int64)
	for k := range e.orderingCounts {
		if n := e.orderingCounts[k].Load(); n > 0 {
			orderings[solver.OrderingKind(k).String()] = n
		}
	}
	precisions := make(map[string]int64)
	for k := range e.precisionCounts {
		if n := e.precisionCounts[k].Load(); n > 0 {
			precisions[solver.Precision(k).String()] = n
		}
	}
	return EngineStats{
		OrderingCounts:     orderings,
		PrecisionCounts:    precisions,
		Cache:              e.cache.Stats(),
		JobsDone:           e.jobsDone.Load(),
		JobsFailed:         e.jobsFailed.Load(),
		Factorizations:     e.factorBuilds.Load(),
		FactorHits:         e.factorHits.Load(),
		Assemblies:         e.asmBuilds.Load(),
		AssemblyHits:       e.asmHits.Load(),
		IterativeSolves:    e.iterativeSolves.Load(),
		WarmStarts:         e.warmStarts.Load(),
		Iterations:         e.iterations.Load(),
		PrecondBuilds:      e.precondBuilds.Load(),
		PrecondHits:        e.precondHits.Load(),
		PrecisionFallbacks: e.precisionFallbacks.Load(),
	}
}

// Solve runs a single job through the engine (cache-aware, factor-sharing,
// unit-solution-scaling). The returned JobResult always carries the outcome;
// the error mirrors JobResult.Err for convenience.
func (e *Engine) Solve(job Job) (*JobResult, error) {
	res := e.solve(job, 0, solver.DefaultWorkers())
	return res, res.Err
}

// BatchSolve runs every job on a pool of at most EngineOptions.Workers
// goroutines and returns per-job results in input order plus aggregate
// stats. Jobs with the same unit-cell configuration share one ROM (the
// local stage runs once per distinct configuration no matter how the jobs
// interleave), jobs on the same lattice share one reduced-global assembly,
// and uniform-ΔT iterative jobs on the same lattice share one unit-load
// solution, so the answers do not depend on the order of the jobs.
//
//stressvet:gang -- batch worker pool, capped at min(opt.Workers, len(jobs))
func (e *Engine) BatchSolve(jobs []Job) *BatchResult {
	start := time.Now()
	out := &BatchResult{Results: make([]JobResult, len(jobs))}
	workers := max(1, min(e.opt.Workers, len(jobs)))
	// Split the machine between concurrent jobs so a batch does not
	// oversubscribe: each job's inner stages (mat-vecs, sampling) get an
	// equal share of GOMAXPROCS.
	inner := max(1, runtime.GOMAXPROCS(0)/workers)

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out.Results[i] = *e.solve(jobs[i], i, inner)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	s := &out.Stats
	s.Jobs = len(jobs)
	s.Wall = time.Since(start)
	for i := range out.Results {
		r := &out.Results[i]
		s.LocalTime += r.LocalWait
		if r.Err != nil {
			s.Errors++
			continue
		}
		if r.CacheHit {
			s.CacheHits++
		} else {
			s.CacheMisses++
		}
		s.GlobalTime += r.Result.GlobalTime
		s.Iterations += int64(r.Result.Stats.Iterations)
		if r.Result.Stats.Warm {
			s.WarmStarts++
		}
	}
	return out
}

// engineBC is the boundary condition of every engine job (globalProblem
// builds the Problem with it); the cache keys bake it in so a future second
// BC kind cannot silently collide.
const engineBC = array.ClampedTopBottom

// LatticeKey identifies the job's reduced global system: ROM content (the
// SHA-256 of the unit-cell spec), array dimensions, and BC pattern —
// everything the matrix depends on and nothing it does not (the thermal
// load). It is the key of the engine's assembly cache, and so of
// everything cached on an assembly (preconditioners, factor, unit-load
// solutions), and therefore also the routing key of the shard router:
// requests with equal LatticeKeys must land on the same replica for those
// caches to stay hot. Empty when the spec cannot be hashed.
func LatticeKey(job Job) string {
	key, err := romcache.Key(job.Config.romSpec(true))
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%s|%dx%d|bc%d", key, job.Cols, job.Rows, engineBC)
}

func (e *Engine) solve(job Job, index, workers int) *JobResult {
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	if job.Config.Workers > 0 {
		workers = job.Config.Workers
	}
	res := &JobResult{Index: index}
	start := time.Now()
	defer func() {
		res.Total = time.Since(start)
		if res.Err != nil {
			e.jobsFailed.Add(1)
		} else {
			e.jobsDone.Add(1)
		}
	}()

	if job.Rows < 1 || job.Cols < 1 {
		res.Err = fmt.Errorf("morestress: job array size must be positive, got %d×%d", job.Rows, job.Cols)
		return res
	}
	spec := job.Config.romSpec(true)
	r, hit, err := e.cache.Get(spec)
	res.LocalWait = time.Since(start)
	if err != nil {
		res.Err = fmt.Errorf("morestress: job local stage: %w", err)
		return res
	}
	res.CacheHit = hit

	kind := array.GMRES
	switch job.Solver {
	case SolveCG:
		kind = array.CG
	case SolveDirect:
		kind = array.Direct
	}
	prob := globalProblem(r, job.Rows, job.Cols, job.DeltaT, job.DeltaTMap, kind, job.Options, workers)
	if key := LatticeKey(job); key != "" {
		// Assemble-once: the reduced global system depends on the ROM
		// content, the array dimensions, and the BC pattern — not on ΔT —
		// so every scenario on the lattice shares one assembly.
		asm, built, aerr := e.assemblies.Get(key, func() (*array.Assembly, error) {
			return array.NewAssembly(prob, workers)
		})
		if aerr != nil {
			res.Err = fmt.Errorf("morestress: job global assembly: %w", aerr)
			return res
		}
		if built {
			e.asmBuilds.Add(1)
		} else {
			e.asmHits.Add(1)
		}
		prob.Assembly = asm
	}
	ar, err := solveGlobal(prob, job.GridSamples)
	if err != nil {
		res.Err = fmt.Errorf("morestress: job global stage: %w", err)
		return res
	}
	sol := ar.Solution
	switch {
	case len(sol.QFree) == 0:
		// A degenerate all-constrained lattice ran no solver; counting it
		// would skew the factor and warm-start hit rates.
	case kind == array.Direct:
		if sol.PrecondShared {
			e.factorHits.Add(1)
		} else {
			e.factorBuilds.Add(1)
		}
	default:
		e.iterativeSolves.Add(1)
		e.iterations.Add(int64(sol.Stats.Iterations))
		if sol.Stats.Warm {
			e.warmStarts.Add(1)
		}
		if sol.PrecondShared {
			e.precondHits.Add(1)
		} else {
			e.precondBuilds.Add(1)
		}
		if o := sol.Ordering; o >= 0 && int(o) < len(e.orderingCounts) {
			e.orderingCounts[o].Add(1)
		}
		if pr := sol.Precision; pr >= 0 && int(pr) < len(e.precisionCounts) {
			e.precisionCounts[pr].Add(1)
		}
		if sol.PrecisionFallback {
			e.precisionFallbacks.Add(1)
		}
	}
	res.Result = ar
	return res
}
