// Package serveapi is the HTTP serving layer of the MORE-Stress engine,
// extracted from cmd/serve so that every front end can share it: cmd/serve
// mounts it directly (optionally over N in-process engine shards), the
// cmd/router proxy reuses its request/response types to derive routing keys
// and to aggregate /stats, and multi-replica test harnesses re-exec real
// replica processes built from it. The Server handles the synchronous
// endpoints (POST /solve, POST /batch), the async job lifecycle (POST
// /jobs, GET /jobs/{id}, GET /jobs/{id}/events, DELETE /jobs/{id}), and the
// observability trio (GET /stats, GET /healthz, GET /readyz).
//
// Liveness vs readiness: /healthz answers "is the process up" and is always
// 200; /readyz answers "should this replica take traffic" — 503 while
// journal recovery is still replaying, after the queue stops accepting, or
// while the journal cannot persist accepted jobs. The traffic-mutating
// endpoints (solve, batch, job submit/cancel) are gated on the same
// readiness bit, so a router probing /readyz never routes into the
// recovery window.
package serveapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	morestress "repro"
	"repro/internal/jobqueue"
	"repro/internal/mesh"
	"repro/internal/wal"
)

// Request-size guards: the server is a demonstration front end, not a
// hardened ingress, but it should not let one request allocate the machine.
const (
	maxArrayDim    = 512
	maxGridSamples = 500
	maxBatchJobs   = 1024
	// MaxBodyBytes caps a request body; exported so the shard router
	// applies the same bound before buffering a body for key derivation.
	MaxBodyBytes = 8 << 20
	// maxFieldSamples caps rows·cols·gridSamples², the total von Mises
	// sample count of one job (the per-dimension caps alone would still
	// admit a ~10¹¹-sample field). 2²² float64s ≈ 32 MB.
	maxFieldSamples = 1 << 22
	// maxBatchFieldSamples caps the sample count summed over a /batch
	// request: every sampled field is held in memory at once in the batch
	// result, so the per-job cap alone would still let maxBatchJobs
	// at-cap jobs allocate ~34 GB. 2²⁵ float64s ≈ 268 MB.
	maxBatchFieldSamples = 1 << 25
	// minTol is the tightest iterative tolerance a request may ask for. A
	// float64 residual cannot certify much below it, so a tighter tol only
	// runs the solve to MaxIter (10·n iterations), and then runs the
	// float64 retry to MaxIter as well, holding a worker slot throughout.
	minTol = 1e-12
)

// fieldSamples returns the request's total von Mises sample count.
func (r *JobRequest) fieldSamples() int64 {
	return int64(r.Rows) * int64(r.Cols) * int64(r.GridSamples) * int64(r.GridSamples)
}

// JobRequest is the JSON description of one scenario, shared by /solve and
// the elements of /batch. Zero values select the paper defaults.
type JobRequest struct {
	// Unit cell (determines the cached ROM).
	Pitch      float64 `json:"pitch"`      // µm, default 15
	Nodes      int     `json:"nodes"`      // interpolation nodes per axis, default 5
	Resolution string  `json:"resolution"` // "default" or "coarse"
	Structure  string  `json:"structure"`  // "tsv", "pillar", or "annular"
	Quadratic  bool    `json:"quadratic"`

	// Scenario.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// DeltaT is the thermal load in °C; omitted means −250. A pointer so
	// an explicit 0 (the zero-load baseline) survives JSON decoding.
	DeltaT      *float64 `json:"deltaT"`
	GridSamples int      `json:"gridSamples"`
	Solver      string   `json:"solver"` // "gmres" (default), "cg", or "direct"
	// Tol is the relative residual tolerance of the iterative solvers: 0
	// (the default, 1e-8) or in [1e-12, 1); anything else is a 400.
	Tol     float64 `json:"tol"`
	MaxIter int     `json:"maxIter"`
	// Precond selects the iterative preconditioner: "auto" (default,
	// size-resolved), "block-jacobi3"/"bj3", "ic0", or "none"; any other
	// spelling, including the deleted scalar "jacobi", is a 400 that lists
	// these. Empty falls back to the server's -precond flag.
	Precond string `json:"precond"`
	// Ordering selects the IC0 factor ordering: "auto" (default, picks
	// multicolor when the system is large enough for the parallel kernels
	// and the solve runs more than one worker), "natural", or "multicolor";
	// any other spelling is a 400 that lists these. Empty falls back to the
	// server's -ordering flag.
	Ordering string `json:"ordering"`
	// Precision selects the IC0 factor storage precision: "auto" (default,
	// float32 when the factor tiles), "float64"/"f64"/"double", or
	// "float32"/"f32"/"single". Empty falls back to the server's
	// -precision flag.
	Precision string `json:"precision"`

	// IncludeField returns the sampled von Mises field in the response
	// (requires gridSamples > 0).
	IncludeField bool `json:"includeField"`
}

func (r *JobRequest) ToJob(defaultPrecond morestress.Precond, defaultOrdering morestress.Ordering) (morestress.Job, error) {
	return r.ToJobPrec(defaultPrecond, defaultOrdering, morestress.PrecisionAuto)
}

// ToJobPrec is ToJob with an explicit default for the factor precision (the
// server's -precision flag), applied when the request does not name one.
func (r *JobRequest) ToJobPrec(defaultPrecond morestress.Precond, defaultOrdering morestress.Ordering, defaultPrecision morestress.Precision) (morestress.Job, error) {
	var job morestress.Job
	pitch := r.Pitch
	if pitch == 0 {
		pitch = 15
	}
	cfg := morestress.DefaultConfig(pitch)
	if r.Nodes != 0 {
		if r.Nodes < 2 || r.Nodes > 8 {
			return job, fmt.Errorf("nodes must be in [2, 8], got %d", r.Nodes)
		}
		cfg.Nodes = [3]int{r.Nodes, r.Nodes, r.Nodes}
	}
	switch strings.ToLower(r.Resolution) {
	case "", "default":
	case "coarse":
		cfg.Resolution = mesh.CoarseResolution()
	default:
		return job, fmt.Errorf("unknown resolution %q (want \"default\" or \"coarse\")", r.Resolution)
	}
	switch strings.ToLower(r.Structure) {
	case "", "tsv":
	case "pillar":
		cfg.Structure = morestress.StructurePillar
	case "annular":
		cfg.Structure = morestress.StructureAnnular
	default:
		return job, fmt.Errorf("unknown structure %q (want \"tsv\", \"pillar\", or \"annular\")", r.Structure)
	}
	cfg.Quadratic = r.Quadratic
	job.Config = cfg

	job.Rows, job.Cols = r.Rows, r.Cols
	if job.Rows < 1 || job.Cols < 1 {
		return job, fmt.Errorf("rows and cols must be positive, got %d×%d", r.Rows, r.Cols)
	}
	if job.Rows > maxArrayDim || job.Cols > maxArrayDim {
		return job, fmt.Errorf("array dimension exceeds %d blocks", maxArrayDim)
	}
	job.DeltaT = -250
	if r.DeltaT != nil {
		job.DeltaT = *r.DeltaT
	}
	if r.GridSamples < 0 || r.GridSamples > maxGridSamples {
		return job, fmt.Errorf("gridSamples must be in [0, %d], got %d", maxGridSamples, r.GridSamples)
	}
	if total := r.fieldSamples(); total > maxFieldSamples {
		return job, fmt.Errorf("field would hold %d samples; rows·cols·gridSamples² must not exceed %d", total, maxFieldSamples)
	}
	job.GridSamples = r.GridSamples
	if r.IncludeField && r.GridSamples == 0 {
		return job, fmt.Errorf("includeField requires gridSamples > 0")
	}
	switch strings.ToLower(r.Solver) {
	case "", "gmres":
		job.Solver = morestress.SolveGMRES
	case "cg":
		job.Solver = morestress.SolveCG
	case "direct":
		job.Solver = morestress.SolveDirect
	default:
		return job, fmt.Errorf("unknown solver %q (want \"gmres\", \"cg\", or \"direct\")", r.Solver)
	}
	if r.Tol != 0 && !(r.Tol >= minTol && r.Tol < 1) {
		return job, fmt.Errorf("tol must be 0 (default 1e-8) or in [%g, 1), got %g", minTol, r.Tol)
	}
	precond := defaultPrecond
	if r.Precond != "" {
		var err error
		if precond, err = morestress.ParsePrecond(r.Precond); err != nil {
			return job, err
		}
	}
	ordering := defaultOrdering
	if r.Ordering != "" {
		var err error
		if ordering, err = morestress.ParseOrdering(r.Ordering); err != nil {
			return job, err
		}
	}
	precision := defaultPrecision
	if r.Precision != "" {
		var err error
		if precision, err = morestress.ParsePrecision(r.Precision); err != nil {
			return job, err
		}
	}
	job.Options = morestress.SolverOptions{Tol: r.Tol, MaxIter: r.MaxIter, Precond: precond, Ordering: ordering, Precision: precision}
	return job, nil
}

// FieldResponse is a sampled von Mises field.
type FieldResponse struct {
	NX int       `json:"nx"`
	NY int       `json:"ny"`
	V  []float64 `json:"v"` // row-major, x fastest, MPa
}

// JobResponse is the JSON outcome of one scenario.
type JobResponse struct {
	Error      string  `json:"error,omitempty"`
	Converged  bool    `json:"converged"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	// Precond is the resolved preconditioner of an iterative solve and
	// Ordering the symmetric ordering its factor was built under;
	// WarmStart reports whether the solve was seeded from a previous
	// solution on the same lattice, and PrecondCached whether the
	// preconditioner came from the lattice assembly's cache instead of
	// being built by this solve. Empty/false for direct solves.
	Precond       string `json:"precond,omitempty"`
	Ordering      string `json:"ordering,omitempty"`
	WarmStart     bool   `json:"warmStart,omitempty"`
	PrecondCached bool   `json:"precondCached,omitempty"`
	// Precision is the storage precision the preconditioner factor was
	// held in ("float64" or "float32"), and PrecisionFallback reports
	// that the solve stalled under a float32 factor and the recorded solve
	// ran against the lattice's float64 factor.
	Precision         string         `json:"precision,omitempty"`
	PrecisionFallback bool           `json:"precisionFallback,omitempty"`
	GlobalDoFs        int            `json:"globalDoFs"`
	MaxVonMises       float64        `json:"maxVonMises,omitempty"`
	CacheHit          bool           `json:"cacheHit"`
	LocalWaitMS       float64        `json:"localWaitMs"`
	TotalMS           float64        `json:"totalMs"`
	Field             *FieldResponse `json:"field,omitempty"`
}

func toResponse(res *morestress.JobResult, includeField bool) JobResponse {
	out := JobResponse{
		CacheHit:    res.CacheHit,
		LocalWaitMS: float64(res.LocalWait) / float64(time.Millisecond),
		TotalMS:     float64(res.Total) / float64(time.Millisecond),
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
		return out
	}
	r := res.Result
	out.Converged = r.Stats.Converged
	out.Iterations = r.Stats.Iterations
	out.Residual = r.Stats.Residual
	if r.Iterative() {
		out.Precond = r.Stats.Precond.String()
		out.Ordering = r.Solution.Ordering.String()
		out.WarmStart = r.Stats.Warm
		out.PrecondCached = r.Solution.PrecondShared
		out.Precision = r.Solution.Precision.String()
		out.PrecisionFallback = r.Solution.PrecisionFallback
	}
	out.GlobalDoFs = r.GlobalDoFs
	if r.VM != nil {
		out.MaxVonMises = r.VM.Max()
		if includeField {
			out.Field = &FieldResponse{NX: r.VM.NX, NY: r.VM.NY, V: r.VM.V}
		}
	}
	return out
}

// Server is the HTTP front end over a Solver (a single Engine or a sharded
// router.Shards) and its async job queue.
type Server struct {
	engine morestress.Solver
	queue  *jobqueue.Queue
	// Journal is the queue's WAL when the process runs with a journal dir
	// (nil otherwise); held so /stats can report it and /readyz can check
	// that it still takes appends.
	Journal *wal.Log
	// Precond, Ordering, and Precision are the server-wide defaults
	// (-precond, -ordering, and -precision flags), applied to requests that
	// do not name one.
	Precond   morestress.Precond
	Ordering  morestress.Ordering
	Precision morestress.Precision
	// PerShard, when the engine is an in-process shard set, returns the
	// per-shard engine snapshots /stats breaks out under "shards" (nil for
	// a single engine).
	PerShard func() []morestress.EngineStats
	start    time.Time
	requests atomic.Int64
	// recovering is set between BeginRecovery and FinishRecovery: the
	// journal is being replayed, so the replica must not advertise itself
	// ready nor accept traffic that would race the replay.
	recovering atomic.Bool
	// done is closed when the server begins shutting down; long-lived
	// response streams (SSE) select on it so httpSrv.Shutdown does not
	// wait out its deadline on subscribers that would otherwise never
	// notice.
	done     chan struct{}
	downOnce sync.Once
}

func New(e morestress.Solver, q *jobqueue.Queue) *Server {
	return &Server{engine: e, queue: q, start: time.Now(), done: make(chan struct{})}
}

// BeginShutdown releases every long-lived stream; safe to call repeatedly.
func (s *Server) BeginShutdown() {
	s.downOnce.Do(func() { close(s.done) })
}

// BeginRecovery marks the replica not-ready: /readyz turns 503 and the
// traffic-mutating endpoints refuse with 503 until FinishRecovery. Call it
// before the listener starts when a journal replay still has to run, so
// health probes see the process alive but not yet live.
func (s *Server) BeginRecovery() { s.recovering.Store(true) }

// FinishRecovery marks the replica ready (the complement of BeginRecovery).
func (s *Server) FinishRecovery() { s.recovering.Store(false) }

// Ready reports whether the replica should take traffic: recovery complete,
// queue accepting submissions, and (when journaled) the journal writable.
func (s *Server) Ready() bool {
	if s.recovering.Load() || !s.queue.Accepting() {
		return false
	}
	return s.Journal == nil || s.Journal.Writable()
}

// Routes builds the handler mux: the synchronous endpoints (POST /solve,
// POST /batch), the async job lifecycle (POST /jobs, GET /jobs/{id},
// GET /jobs/{id}/events, DELETE /jobs/{id}), and the observability trio
// (GET /stats, GET /healthz, GET /readyz). The mutating endpoints are
// wrapped in the readiness gate: while the replica is not ready they
// return 503 with Retry-After instead of racing a journal replay.
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.ifReady(s.handleSolve))
	mux.HandleFunc("POST /batch", s.ifReady(s.handleBatch))
	mux.HandleFunc("POST /jobs", s.ifReady(s.handleJobSubmit))
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.ifReady(s.handleJobCancel))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// ifReady gates a traffic-mutating handler on readiness: a request that
// arrives mid-recovery (or after the queue closed) gets 503 + Retry-After
// so a well-behaved client — and the shard router — moves on.
func (s *Server) ifReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			s.requests.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, errNotReady)
			return
		}
		h(w, r)
	}
}

var errNotReady = fmt.Errorf("replica not ready (recovering, queue closed, or journal unwritable); retry or route elsewhere")

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	job, err := req.ToJobPrec(s.Precond, s.Ordering, s.Precision)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	res, _ := s.engine.Solve(job)
	if res.Err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, toResponse(res, false))
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res, req.IncludeField))
}

// BatchRequest wraps the /batch payload.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// BatchResponse reports per-job outcomes plus the batch aggregate.
type BatchResponse struct {
	Results []JobResponse `json:"results"`
	Stats   struct {
		Jobs        int     `json:"jobs"`
		Errors      int     `json:"errors"`
		CacheHits   int     `json:"cacheHits"`
		CacheMisses int     `json:"cacheMisses"`
		WallMS      float64 `json:"wallMs"`
		LocalMS     float64 `json:"localMs"`
		GlobalMS    float64 `json:"globalMs"`
	} `json:"stats"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	jobs, include, _, ok := s.decodeBatch(w, r)
	if !ok {
		return
	}
	br := s.engine.BatchSolve(jobs)
	var out BatchResponse
	out.Results = make([]JobResponse, len(br.Results))
	for i := range br.Results {
		out.Results[i] = toResponse(&br.Results[i], include[i])
	}
	st := br.Stats
	out.Stats.Jobs = st.Jobs
	out.Stats.Errors = st.Errors
	out.Stats.CacheHits = st.CacheHits
	out.Stats.CacheMisses = st.CacheMisses
	out.Stats.WallMS = float64(st.Wall) / float64(time.Millisecond)
	out.Stats.LocalMS = float64(st.LocalTime) / float64(time.Millisecond)
	out.Stats.GlobalMS = float64(st.GlobalTime) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, out)
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	UptimeSeconds  float64 `json:"uptimeSeconds"`
	Requests       int64   `json:"requests"`
	JobsDone       int64   `json:"jobsDone"`
	JobsFailed     int64   `json:"jobsFailed"`
	Factorizations int64   `json:"factorizations"`
	FactorHits     int64   `json:"factorHits"`
	// Solver reports the global-stage scaling machinery: the assemble-once
	// cache (one matrix assembly per lattice) and the warm-start behavior
	// of the iterative solvers.
	Solver struct {
		Assemblies      int64 `json:"assemblies"`
		AssemblyHits    int64 `json:"assemblyHits"`
		IterativeSolves int64 `json:"iterativeSolves"`
		WarmStarts      int64 `json:"warmStarts"`
		WarmFallbacks   int64 `json:"warmFallbacks"`
		Iterations      int64 `json:"iterations"`
		// PrecondBuilds/PrecondHits report the assembly-cached
		// preconditioners: built at most once per (lattice, kind,
		// ordering), shared by every scenario after that.
		PrecondBuilds int64 `json:"precondBuilds"`
		PrecondHits   int64 `json:"precondHits"`
		// OrderingCounts tallies iterative solves by the symmetric
		// ordering their preconditioner factored under ("natural",
		// "multicolor"); orderings that never ran are omitted.
		OrderingCounts map[string]int64 `json:"orderingCounts"`
		// PrecisionCounts tallies iterative solves by the storage precision
		// of their preconditioner factor ("float64", "float32");
		// PrecisionFallbacks counts solves that stalled under a float32
		// factor and were retried against a float64 one.
		PrecisionCounts    map[string]int64 `json:"precisionCounts"`
		PrecisionFallbacks int64            `json:"precisionFallbacks"`
		// WarmStartRate is WarmStarts / IterativeSolves (0 when none ran).
		WarmStartRate float64 `json:"warmStartRate"`
	} `json:"solver"`
	Cache struct {
		Hits        int64   `json:"hits"`
		Misses      int64   `json:"misses"`
		DiskHits    int64   `json:"diskHits"`
		Evictions   int64   `json:"evictions"`
		Entries     int     `json:"entries"`
		Bytes       int64   `json:"bytes"`
		MaxBytes    int64   `json:"maxBytes"`
		BuildTimeMS float64 `json:"buildTimeMs"`
	} `json:"cache"`
	Queue struct {
		Depth           int     `json:"depth"`
		Capacity        int     `json:"capacity"`
		Running         int     `json:"running"`
		Retained        int     `json:"retained"`
		Submitted       int64   `json:"submitted"`
		Done            int64   `json:"done"`
		Failed          int64   `json:"failed"`
		Cancelled       int64   `json:"cancelled"`
		Expired         int64   `json:"expired"`
		ScenariosSolved int64   `json:"scenariosSolved"`
		SolveTimeMS     float64 `json:"solveTimeMs"`
		// RetainedFieldSamples is the field-sample cost of every tracked
		// job, drawn against FieldSampleBudget (0 = unlimited).
		RetainedFieldSamples int64 `json:"retainedFieldSamples"`
		FieldSampleBudget    int64 `json:"fieldSampleBudget"`
		// ThroughputPerSec is completed scenarios per second of uptime.
		ThroughputPerSec float64 `json:"throughputPerSec"`
	} `json:"queue"`
	// Journal reports the job durability layer; omitted without
	// -journal-dir.
	Journal *JournalStats `json:"journal,omitempty"`
	// Shards breaks the solver counters out per in-process engine shard;
	// present only when the process runs -shards > 1. The lattice-affine
	// counters (assemblies, preconditioner builds) are the cache-affinity
	// evidence: with HRW routing each lattice's builds appear under
	// exactly one shard.
	Shards []ShardStats `json:"shards,omitempty"`
}

// ShardStats is the per-shard slice of the merged engine counters.
type ShardStats struct {
	Shard           int   `json:"shard"`
	JobsDone        int64 `json:"jobsDone"`
	JobsFailed      int64 `json:"jobsFailed"`
	Assemblies      int64 `json:"assemblies"`
	AssemblyHits    int64 `json:"assemblyHits"`
	PrecondBuilds   int64 `json:"precondBuilds"`
	PrecondHits     int64 `json:"precondHits"`
	IterativeSolves int64 `json:"iterativeSolves"`
	WarmStarts      int64 `json:"warmStarts"`
	Factorizations  int64 `json:"factorizations"`
	FactorHits      int64 `json:"factorHits"`
	// PrecisionFallbacks reports the shard's float64 retries (see the
	// solver section for the fleet total).
	PrecisionFallbacks int64 `json:"precisionFallbacks,omitempty"`
}

// JournalStats is the /stats view of the job WAL and the recovery that ran
// at startup.
type JournalStats struct {
	// Bytes and Segments describe the on-disk log right now.
	Bytes    int64 `json:"bytes"`
	Segments int   `json:"segments"`
	// Appends counts records fsynced this process lifetime; AppendErrors
	// the appends that failed after the job was already accepted.
	Appends      int64 `json:"appends"`
	AppendErrors int64 `json:"appendErrors"`
	// TornBytes is what torn-tail truncation discarded at startup.
	TornBytes int64 `json:"tornBytes"`
	// Compactions counts log rewrites; LastCompaction is the latest one
	// (RFC 3339, empty when none ran yet).
	Compactions    int64  `json:"compactions"`
	LastCompaction string `json:"lastCompaction,omitempty"`
	// RecordsReplayed/Requeued/Restored/Expired describe the startup
	// recovery: records read, non-terminal jobs re-enqueued, finished jobs
	// restored with results, finished jobs dropped as past their TTL.
	RecordsReplayed int `json:"recordsReplayed"`
	Requeued        int `json:"requeued"`
	Restored        int `json:"restored"`
	Expired         int `json:"expired"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	es := s.engine.Stats()
	var out StatsResponse
	out.UptimeSeconds = time.Since(s.start).Seconds()
	out.Requests = s.requests.Load()
	out.JobsDone = es.JobsDone
	out.JobsFailed = es.JobsFailed
	out.Factorizations = es.Factorizations
	out.FactorHits = es.FactorHits
	out.Solver.Assemblies = es.Assemblies
	out.Solver.AssemblyHits = es.AssemblyHits
	out.Solver.IterativeSolves = es.IterativeSolves
	out.Solver.WarmStarts = es.WarmStarts
	out.Solver.WarmFallbacks = es.WarmFallbacks
	out.Solver.Iterations = es.Iterations
	out.Solver.PrecondBuilds = es.PrecondBuilds
	out.Solver.PrecondHits = es.PrecondHits
	out.Solver.OrderingCounts = es.OrderingCounts
	out.Solver.PrecisionCounts = es.PrecisionCounts
	out.Solver.PrecisionFallbacks = es.PrecisionFallbacks
	if es.IterativeSolves > 0 {
		out.Solver.WarmStartRate = float64(es.WarmStarts) / float64(es.IterativeSolves)
	}
	out.Cache.Hits = es.Cache.Hits
	out.Cache.Misses = es.Cache.Misses
	out.Cache.DiskHits = es.Cache.DiskHits
	out.Cache.Evictions = es.Cache.Evictions
	out.Cache.Entries = es.Cache.Entries
	out.Cache.Bytes = es.Cache.Bytes
	out.Cache.MaxBytes = es.Cache.MaxBytes
	out.Cache.BuildTimeMS = float64(es.Cache.BuildTime) / float64(time.Millisecond)
	qs := s.queue.Stats()
	out.Queue.Depth = qs.Depth
	out.Queue.Capacity = qs.Capacity
	out.Queue.Running = qs.Running
	out.Queue.Retained = qs.Retained
	out.Queue.Submitted = qs.Submitted
	out.Queue.Done = qs.Done
	out.Queue.Failed = qs.Failed
	out.Queue.Cancelled = qs.Cancelled
	out.Queue.Expired = qs.Expired
	out.Queue.ScenariosSolved = qs.ScenariosSolved
	out.Queue.SolveTimeMS = float64(qs.SolveTime) / float64(time.Millisecond)
	out.Queue.RetainedFieldSamples = qs.RetainedCost
	out.Queue.FieldSampleBudget = qs.MaxCost
	if up := out.UptimeSeconds; up > 0 {
		out.Queue.ThroughputPerSec = float64(qs.ScenariosSolved) / up
	}
	if s.PerShard != nil {
		per := s.PerShard()
		out.Shards = make([]ShardStats, len(per))
		for i, es := range per {
			out.Shards[i] = ShardStats{
				Shard:              i,
				JobsDone:           es.JobsDone,
				JobsFailed:         es.JobsFailed,
				Assemblies:         es.Assemblies,
				AssemblyHits:       es.AssemblyHits,
				PrecondBuilds:      es.PrecondBuilds,
				PrecondHits:        es.PrecondHits,
				IterativeSolves:    es.IterativeSolves,
				WarmStarts:         es.WarmStarts,
				Factorizations:     es.Factorizations,
				FactorHits:         es.FactorHits,
				PrecisionFallbacks: es.PrecisionFallbacks,
			}
		}
	}
	if s.Journal != nil {
		ws := s.Journal.Stats()
		rec := s.queue.Recovered()
		js := &JournalStats{
			Bytes:           ws.Bytes,
			Segments:        ws.Segments,
			Appends:         ws.Appends,
			AppendErrors:    qs.JournalErrors,
			TornBytes:       ws.TornBytes,
			Compactions:     ws.Compactions,
			RecordsReplayed: rec.Records,
			Requeued:        rec.Requeued,
			Restored:        rec.Restored,
			Expired:         rec.Expired,
		}
		if !ws.LastCompaction.IsZero() {
			js.LastCompaction = ws.LastCompaction.Format(time.RFC3339Nano)
		}
		out.Journal = js
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// ReadyzResponse is the GET /readyz payload: the readiness verdict plus the
// per-component breakdown a probe can log when the verdict is 503.
type ReadyzResponse struct {
	Ready bool `json:"ready"`
	// Recovered is false while the startup journal replay is running.
	Recovered bool `json:"recovered"`
	// Accepting reports the queue takes submissions (false after Close).
	Accepting bool `json:"accepting"`
	// JournalWritable reports the journal's sticky append health; true
	// when the process runs without a journal.
	JournalWritable bool `json:"journalWritable"`
}

// handleReadyz is the readiness probe behind router health checks: 200 only
// once recovery completed, while the queue accepts jobs, and while the
// journal (if any) persists them. /healthz stays 200 through all of that —
// alive but not yet (or no longer) live is exactly the window this probe
// exists to report.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	out := ReadyzResponse{
		Recovered:       !s.recovering.Load(),
		Accepting:       s.queue.Accepting(),
		JournalWritable: s.Journal == nil || s.Journal.Writable(),
	}
	out.Ready = out.Recovered && out.Accepting && out.JournalWritable
	status := http.StatusOK
	if !out.Ready {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, out)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
