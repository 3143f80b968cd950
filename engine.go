package morestress

import (
	"fmt"
	"runtime"
	"sort"
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
	// size, and boundary condition share one factorization, so batches of
	// load sweeps pay it once.
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
	// batch; WarmStarts counts the solves that were seeded from a previous
	// solution on the same lattice. Together they quantify the warm-start
	// payoff of a ΔT sweep.
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
	// BuildWorkers is the local-stage parallelism of cache-miss builds
	// (default GOMAXPROCS).
	BuildWorkers int
	// MaxFactors bounds the shared Cholesky factorization cache used by
	// SolveDirect jobs by entry count (default 16).
	MaxFactors int
	// FactorBytes additionally bounds the factorization cache by the sum
	// of the factors' MemoryBytes (0 = entry-count bound only).
	FactorBytes int64
	// MaxAssemblies bounds the shared assemble-once cache of reduced
	// global systems by entry count (default 16). Every solver kind uses
	// it: a ΔT sweep on one lattice assembles the global matrix once.
	MaxAssemblies int
	// AssemblyBytes additionally bounds the assembly cache by the sum of
	// the assemblies' MemoryBytes (0 = entry-count bound only).
	AssemblyBytes int64
	// DisableWarmStart turns off initial-guess reuse: by default the
	// engine seeds each iterative solve on a lattice with the most recent
	// solution of that lattice (scaled across uniform-ΔT scenarios),
	// falling back to a cold solve on divergence.
	DisableWarmStart bool
	// SharedCache, when non-nil, is used as the engine's ROM cache instead
	// of building a private one (CacheBytes/CacheEntries/CacheDir/
	// BuildWorkers are then ignored). The ROM cache is content-addressed
	// and shard-agnostic, so in-process engine shards share one: each
	// distinct unit cell pays the local stage once per process, while the
	// lattice-keyed caches (assemblies, preconditioners, factors, seeds)
	// stay private per shard.
	SharedCache *romcache.Cache
}

// EngineStats is a snapshot of an engine's lifetime counters.
type EngineStats struct {
	// Cache reports the ROM cache.
	Cache romcache.Stats
	// JobsDone and JobsFailed count completed jobs since engine creation.
	JobsDone, JobsFailed int64
	// Factorizations counts Cholesky factorizations performed for
	// SolveDirect jobs; FactorHits counts Direct solves that reused one.
	Factorizations, FactorHits int64
	// Assemblies counts reduced-global assemblies built; AssemblyHits
	// counts solves that reused a cached one instead of re-scattering the
	// global matrix.
	Assemblies, AssemblyHits int64
	// IterativeSolves counts global solves through GMRES/PCG. WarmStarts
	// of them were seeded from a previous solution; WarmFallbacks
	// diverged under the seed and were retried cold. The warm-start hit
	// rate is WarmStarts / IterativeSolves.
	IterativeSolves, WarmStarts, WarmFallbacks int64
	// Iterations sums the iteration counts of the iterative solves.
	Iterations int64
	// PrecondBuilds counts preconditioner constructions for iterative
	// solves; PrecondHits counts solves that reused one cached on the
	// lattice's Assembly. A preconditioner is built at most once per
	// (lattice, PrecondKind, Ordering), so warm-cache scenarios are all
	// hits.
	PrecondBuilds, PrecondHits int64
	// OrderingCounts tallies iterative solves by the symmetric ordering
	// their preconditioner factored under (keys are the
	// solver.OrderingKind spellings: "natural", "multicolor").
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
	s.WarmFallbacks += o.WarmFallbacks
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
// preconditioners of iterative solves cached on the same snapshot — built
// at most once per lattice and kind), shares sparse Cholesky
// factorizations across repeated Direct solves, and warm-starts
// iterative solves from the latest solution on the same lattice. The
// Workers bound holds across every entry point: concurrent Solve calls and
// overlapping BatchSolve calls together never run more than Workers jobs at
// once. An Engine is safe for concurrent use; create one and reuse it.
type Engine struct {
	opt        EngineOptions
	cache      *romcache.Cache
	factors    *factorCache
	assemblies *memo[*array.Assembly]
	seeds      *seedCache
	// sem is the engine-wide job bound: every solve holds one slot, so
	// Solve and BatchSolve share the same Workers budget.
	sem chan struct{}

	jobsDone, jobsFailed                       atomic.Int64
	iterativeSolves, warmStarts, warmFallbacks atomic.Int64
	iterations                                 atomic.Int64
	precondBuilds, precondHits                 atomic.Int64
	orderingCounts                             [solver.NumOrderings]atomic.Int64
	precisionCounts                            [solver.NumPrecisions]atomic.Int64
	precisionFallbacks                         atomic.Int64
}

// NewEngine creates an engine. A zero EngineOptions is valid.
func NewEngine(opt EngineOptions) *Engine {
	if opt.Workers <= 0 {
		opt.Workers = solver.DefaultWorkers()
	}
	if opt.MaxFactors <= 0 {
		opt.MaxFactors = 16
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
			Workers:    opt.BuildWorkers,
		})
	}
	return &Engine{
		opt:   opt,
		cache: cache,
		factors: &factorCache{memo: memo[*solver.CholFactor]{
			max: opt.MaxFactors, maxBytes: opt.FactorBytes,
			size: (*solver.CholFactor).MemoryBytes,
		}},
		assemblies: &memo[*array.Assembly]{
			max: opt.MaxAssemblies, maxBytes: opt.AssemblyBytes,
			size: (*array.Assembly).MemoryBytes,
		},
		seeds: &seedCache{max: 64},
		sem:   make(chan struct{}, opt.Workers),
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
		Factorizations:     e.factors.built.Load(),
		FactorHits:         e.factors.hits.Load(),
		Assemblies:         e.assemblies.built.Load(),
		AssemblyHits:       e.assemblies.hits.Load(),
		IterativeSolves:    e.iterativeSolves.Load(),
		WarmStarts:         e.warmStarts.Load(),
		WarmFallbacks:      e.warmFallbacks.Load(),
		Iterations:         e.iterations.Load(),
		PrecondBuilds:      e.precondBuilds.Load(),
		PrecondHits:        e.precondHits.Load(),
		PrecisionFallbacks: e.precisionFallbacks.Load(),
	}
}

// Solve runs a single job through the engine (cache-aware, factor-sharing,
// warm-starting). The returned JobResult always carries the outcome; the
// error mirrors JobResult.Err for convenience.
func (e *Engine) Solve(job Job) (*JobResult, error) {
	res := e.solve(job, 0, solver.DefaultWorkers())
	return res, res.Err
}

// solve computes the job's lattice key and delegates; BatchSolve threads
// the keys it already computed for chain planning instead.
func (e *Engine) solve(job Job, index, workers int) *JobResult {
	return e.solveKeyed(job, index, workers, LatticeKey(job))
}

// BatchSolve runs every job on a pool of at most EngineOptions.Workers
// goroutines and returns per-job results in input order plus aggregate
// stats. Jobs with the same unit-cell configuration share one ROM (the
// local stage runs once per distinct configuration no matter how the jobs
// interleave), jobs on the same lattice share one reduced-global assembly,
// and uniform-ΔT iterative jobs on the same lattice are chained in ΔT order
// so each solve warm-starts from its neighbor's solution.
//
//stressvet:gang -- batch worker pool, capped at min(opt.Workers, number of chains)
func (e *Engine) BatchSolve(jobs []Job) *BatchResult {
	start := time.Now()
	out := &BatchResult{Results: make([]JobResult, len(jobs))}
	chains, keys := e.planChains(jobs)
	workers := e.opt.Workers
	if workers > len(chains) {
		workers = len(chains)
	}
	if workers < 1 {
		workers = 1
	}
	// Split the machine between concurrent chains so a batch does not
	// oversubscribe: each job's inner stages (mat-vecs, sampling) get an
	// equal share of GOMAXPROCS.
	inner := runtime.GOMAXPROCS(0) / workers
	if inner < 1 {
		inner = 1
	}

	next := make(chan []int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chain := range next {
				for _, i := range chain {
					out.Results[i] = *e.solveKeyed(jobs[i], i, inner, keys[i])
				}
			}
		}()
	}
	for _, chain := range chains {
		next <- chain
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

// planChains partitions the job indices into execution chains: uniform-ΔT
// iterative jobs on the same lattice form one chain sorted by ΔT (they run
// sequentially so each solve can warm-start from its neighbor — consecutive
// ΔT scenarios differ by a smooth parameter, making the previous solution
// an excellent seed); everything else is a singleton chain. The per-job
// lattice keys are returned so the solve path does not re-hash the specs.
func (e *Engine) planChains(jobs []Job) (chains [][]int, keys []string) {
	chains = make([][]int, 0, len(jobs))
	keys = make([]string, len(jobs))
	grouped := make(map[string][]int)
	var order []string // deterministic chain emission order
	for i, job := range jobs {
		key := LatticeKey(job)
		keys[i] = key
		if e.opt.DisableWarmStart || key == "" || job.Solver == SolveDirect || job.DeltaTMap != nil {
			chains = append(chains, []int{i})
			continue
		}
		if _, seen := grouped[key]; !seen {
			order = append(order, key)
		}
		grouped[key] = append(grouped[key], i)
	}
	for _, key := range order {
		idxs := grouped[key]
		sort.SliceStable(idxs, func(a, b int) bool { return jobs[idxs[a]].DeltaT < jobs[idxs[b]].DeltaT })
		chains = append(chains, idxs)
	}
	return chains, keys
}

// engineBC is the boundary condition of every engine job (globalProblem
// builds the Problem with it); the cache keys bake it in so a future second
// BC kind cannot silently collide.
const engineBC = array.ClampedTopBottom

// LatticeKey identifies the job's reduced global system: ROM content (the
// SHA-256 of the unit-cell spec), array dimensions, and BC pattern —
// everything the matrix depends on and nothing it does not (the thermal
// load). It is the key of every lattice-affine cache in the engine
// (assembly, preconditioner, factor, warm-start seed), and therefore also
// the routing key of the shard router: requests with equal LatticeKeys must
// land on the same replica for those caches to stay hot. Empty when the
// spec cannot be hashed.
func LatticeKey(job Job) string {
	key, err := romcache.Key(job.Config.romSpec(true))
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%s|%dx%d|bc%d", key, job.Cols, job.Rows, engineBC)
}

func (e *Engine) solveKeyed(job Job, index, workers int, key string) *JobResult {
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
	if key != "" {
		// Assemble-once: the reduced global system depends on the ROM
		// content, the array dimensions, and the BC pattern — not on ΔT —
		// so every scenario on the lattice shares one assembly.
		asm, aerr := e.assemblies.getOrBuild(key, func() (*array.Assembly, error) {
			return array.NewAssembly(prob, workers)
		})
		if aerr != nil {
			res.Err = fmt.Errorf("morestress: job global assembly: %w", aerr)
			return res
		}
		prob.Assembly = asm
		if kind == array.Direct {
			prob.Factors = e.factors
			prob.FactorKey = key
		}
		if kind != array.Direct && !e.opt.DisableWarmStart && job.DeltaTMap == nil {
			prob.X0 = e.seeds.get(key, job.DeltaT)
		}
	}
	ar, err := solveGlobal(prob, job.GridSamples)
	if err != nil {
		res.Err = fmt.Errorf("morestress: job global stage: %w", err)
		return res
	}
	sol := ar.Solution
	// Count only solves that actually ran an iterative solver: Direct jobs
	// and degenerate all-constrained lattices (no free DoFs, QFree empty)
	// would otherwise skew the warm-start hit rate.
	if kind != array.Direct && len(sol.QFree) > 0 {
		e.iterativeSolves.Add(1)
		e.iterations.Add(int64(sol.Stats.Iterations))
		if sol.Stats.Warm {
			e.warmStarts.Add(1)
		}
		if sol.WarmFallback {
			e.warmFallbacks.Add(1)
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
	if key != "" && !e.opt.DisableWarmStart && job.DeltaTMap == nil && len(sol.QFree) > 0 {
		e.seeds.put(key, job.DeltaT, sol.QFree)
	}
	res.Result = ar
	return res
}

// memo is a keyed build-once cache with singleflight deduplication, an
// entry-count bound, and an optional byte budget over size(value). When over
// either budget, arbitrary entries other than the newest are dropped (the
// cached artifacts are cheap to rebuild relative to holding unbounded
// memory). The zero sizes are never counted; size must not be nil.
type memo[T any] struct {
	flight   romcache.Group[T]
	max      int
	maxBytes int64
	size     func(T) int64

	mu sync.Mutex
	// guarded by mu
	m     map[string]T
	bytes int64 // guarded by mu

	built, hits atomic.Int64
}

func (c *memo[T]) getOrBuild(key string, build func() (T, error)) (T, error) {
	if v, ok := c.lookup(key); ok {
		c.hits.Add(1)
		return v, nil
	}
	v, err, shared := c.flight.Do(key, func() (T, error) {
		if v, ok := c.lookup(key); ok {
			return v, nil
		}
		v, err := build()
		if err != nil {
			return v, err
		}
		c.built.Add(1)
		c.insert(key, v)
		return v, nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	if shared {
		c.hits.Add(1)
	}
	return v, nil
}

func (c *memo[T]) lookup(key string) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *memo[T]) insert(key string, v T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]T)
	}
	c.m[key] = v
	// Re-sum the byte footprint from scratch: cached values can grow after
	// insertion (an Assembly lazily caches preconditioners), so incremental
	// accounting would drift. Entry counts are small (c.max, default 16).
	c.bytes = 0
	for _, e := range c.m {
		c.bytes += c.size(e)
	}
	// Drop arbitrary other entries until both budgets hold; the entry just
	// inserted always stays (it is about to be used).
	for k, old := range c.m {
		if len(c.m) <= c.max && (c.maxBytes <= 0 || c.bytes <= c.maxBytes) {
			break
		}
		if k == key {
			continue
		}
		delete(c.m, k)
		c.bytes -= c.size(old)
	}
}

// factorCache memoizes sparse Cholesky factorizations for Direct solves; it
// adapts the generic memo to the array.FactorCache interface.
type factorCache struct {
	memo[*solver.CholFactor]
}

// GetOrFactor implements array.FactorCache.
func (f *factorCache) GetOrFactor(key string, build func() (*solver.CholFactor, error)) (*solver.CholFactor, error) {
	return f.getOrBuild(key, build)
}

// seedCache holds the most recent reduced solution per lattice key for
// warm-starting. Entries record the uniform ΔT they were solved at so a
// seed can be rescaled to the target load: for a uniform thermal field the
// reduced RHS — and therefore the solution — is linear in ΔT, so the scaled
// seed of a converged neighbor is already at the solver's tolerance and a
// sweep effectively pays one cold solve per lattice.
type seedCache struct {
	max int

	mu sync.Mutex
	m  map[string]seedEntry // guarded by mu
}

type seedEntry struct {
	qf []float64
	dt float64
}

// get returns a seed for solving the key's lattice at deltaT, nil when none
// is applicable. The returned slice is freshly scaled (or shared read-only
// when the loads match; solver entry points copy their x0 before iterating).
func (s *seedCache) get(key string, deltaT float64) []float64 {
	if deltaT == 0 {
		return nil // the zero-load solution is zero: a "seed" would be a cold start counted as warm
	}
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok || e.dt == 0 || len(e.qf) == 0 {
		return nil
	}
	if deltaT == e.dt { //stressvet:allow floatcmp -- exact-match fast path; inexact ratios fall through to scaling
		return e.qf
	}
	scale := deltaT / e.dt
	out := make([]float64, len(e.qf))
	for i, v := range e.qf {
		out[i] = scale * v
	}
	return out
}

// put records the solution of a uniform-ΔT solve. The slice must not be
// mutated afterwards (Solution.QFree is freshly allocated per solve).
func (s *seedCache) put(key string, deltaT float64, qf []float64) {
	if deltaT == 0 {
		return // zero-load solution is all zeros: no better than a cold start
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]seedEntry)
	}
	_, existed := s.m[key]
	s.m[key] = seedEntry{qf: qf, dt: deltaT}
	if !existed {
		for k := range s.m {
			if len(s.m) <= s.max {
				break
			}
			if k == key {
				continue
			}
			delete(s.m, k)
		}
	}
}
