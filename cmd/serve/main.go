// Command serve exposes the MORE-Stress batch engine over HTTP: scenario
// solves share cached unit-block ROMs (the one-shot local stage runs once
// per distinct unit cell, even under concurrent requests) and repeated
// solves of the same lattice share one assembly of its reduced matrix, with
// the preconditioner or Cholesky factor cached on it. The ROM cache is
// admitted by bytes — each model's MemoryBytes against the -cache-bytes
// budget — so one large lattice cannot evict a working set of small ones,
// and so is the assembly cache, against -assembly-bytes, which counts
// everything cached on an assembly, direct factors included.
//
// # Synchronous endpoints
//
//	POST /solve   one scenario            {"pitch":15,"rows":10,"cols":10,"deltaT":-250,"gridSamples":100}
//	POST /batch   many scenarios          {"jobs":[{...},{...}]}
//
// # Asynchronous job queue
//
// A /batch caller holds its connection for the whole solve. For long ΔT
// sweeps, submit the same payload to the job queue instead and get an ID
// back immediately:
//
//	POST   /jobs              submit; 202 + {"id":...}, 429 when the queue is full
//	GET    /jobs/{id}         poll state, progress, timing; results once finished
//	GET    /jobs/{id}/events  Server-Sent Events stream of the lifecycle
//	DELETE /jobs/{id}         cancel (pending: never runs; running: stops at
//	                          the next scenario boundary; finished: 409)
//
// The job lifecycle:
//
//	pending ──▶ running ──▶ done | failed
//	   │            │
//	   └────────────┴─────▶ cancelled
//
// Finished jobs (and their results) are kept for -job-ttl, then garbage-
// collected; polling an expired ID returns 404. A finished scenario keeps
// only what its response reports: the solver report, timings, peak stress,
// and the sampled field if the scenario set includeField. The solution
// vectors are not kept.
//
// A polling round trip:
//
//	$ curl -s localhost:8080/jobs -d '{"jobs":[{"rows":40,"cols":40,"deltaT":-250},
//	                                           {"rows":40,"cols":40,"deltaT":-200}]}'
//	{"id":"f9a31c0e21d4b007","state":"pending","queueDepth":1,
//	 "poll":"/jobs/f9a31c0e21d4b007","events":"/jobs/f9a31c0e21d4b007/events"}
//	$ curl -s localhost:8080/jobs/f9a31c0e21d4b007
//	{"id":"f9a31c0e21d4b007","state":"running","total":2,"completed":1,...}
//	$ curl -s localhost:8080/jobs/f9a31c0e21d4b007      # later
//	{"id":"f9a31c0e21d4b007","state":"done","total":2,"completed":2,
//	 "results":[{"converged":true,"maxVonMises":...},...]}
//
// Or stream it (one "state" event per transition, one "scenario" event per
// completed scenario):
//
//	$ curl -sN localhost:8080/jobs/f9a31c0e21d4b007/events
//	event: state
//	data: {"type":"state","jobId":"f9a31c0e21d4b007","state":"pending",...}
//	event: state
//	data: {"type":"state","jobId":"f9a31c0e21d4b007","state":"running",...}
//	event: scenario
//	data: {"type":"scenario","jobId":"f9a31c0e21d4b007","state":"running","scenario":0,"completed":1,"total":2}
//	...
//	event: state
//	data: {"type":"state","jobId":"f9a31c0e21d4b007","state":"done","completed":2,"total":2}
//
// # Observability
//
//	GET /stats    engine, cache (bytes in use vs budget), queue counters
//	              (depth, running, throughput), and per-shard counters
//	              under -shards > 1
//	GET /healthz  liveness probe: 200 whenever the process is up
//	GET /readyz   readiness probe: 200 only once journal recovery finished,
//	              while the queue accepts jobs, and while the journal (if
//	              any) still persists them — the probe cmd/router and any
//	              fleet scheduler should gate traffic on
//
// # Sharding
//
// With -shards N > 1 the process runs N independent engines behind one
// listener, each owning the slice of lattice keyspace a rendezvous-hash
// table assigns it (see internal/router). Requests route by lattice key —
// the same string the engine's assembly cache is keyed by, and with it the
// preconditioners, factor and unit-load solutions cached on each assembly —
// so each lattice's cached state lives in exactly one shard and the
// lattice-keyed caches stop contending. The
// content-addressed ROM cache stays shared across shards (ROMs are
// lattice-independent). -workers is split evenly across shards. /stats
// breaks the solver counters out per shard under "shards".
//
// Usage:
//
//	serve [-addr :8080] [-workers N] [-shards 1]
//	      [-cache-bytes 2147483648] [-cache-entries 0] [-cache-dir DIR]
//	      [-queue-depth 64] [-job-workers 1] [-job-ttl 10m]
//	      [-job-field-budget 134217728] [-journal-dir DIR]
//	      [-assembly-bytes 1073741824]
//
// Defaults: -cache-bytes is 2 GiB (romcache.DefaultMaxBytes); -cache-entries
// is 0, meaning the byte budget alone governs admission (set it to add a
// hard model-count cap on top); -queue-depth bounds the async backlog
// (submissions beyond it get 429); -job-workers is the number of jobs
// solving concurrently (scenarios inside a job run in order; the engine
// parallelizes within each solve); -job-ttl is the finished-result
// retention; -job-field-budget caps the aggregate field samples of all
// tracked async jobs, queued through retained (default 2²⁷ ≈ 1 GiB of
// float64 samples — a job is charged its includeField scenarios' samples
// for its whole TTL and, until it finishes, its largest dropped field, so
// parked results cannot exhaust memory; over-budget submissions get 429);
// -assembly-bytes is 1 GiB across at most 16 lattices, each assembly
// counted with its preconditioners, Cholesky factor and unit-load
// solutions (0 leaves only the entry cap).
//
// # Durability
//
// With -journal-dir set, an accepted POST /jobs is a promise that survives
// kill -9: the submission is fsynced to a write-ahead log before the 202 is
// sent, lifecycle transitions and per-scenario results follow, and on
// startup the server replays the log — jobs that never finished re-enter
// the queue in their original order under their original IDs (scenario
// solves are deterministic, so re-running loses nothing), finished jobs
// come back with their results and keep aging against -job-ttl. The
// listener is up during the replay but not ready: /healthz answers 200,
// /readyz and the traffic-mutating endpoints answer 503 until recovery
// completes, so a router never races the replay. /stats reports the journal
// under "journal": size, append and compaction counters, and what recovery
// reconstructed. The log compacts itself once it outgrows a few MiB; torn
// tails from a mid-write crash are truncated on replay. Multiple replicas
// may share one -cache-dir (spills are checksummed and single-writer
// locked) but each needs its own -journal-dir.
//
// # Global-stage solver tuning
//
// The reduced global solve dominates warm-cache request time, so the engine
// assembles each lattice's global matrix once (shared by every scenario on
// that lattice), defaults the iterative solvers to IC0-preconditioned
// CG/GMRES (the per-request "precond" field overrides), and answers each
// uniform-ΔT iterative request as ΔT times the lattice's unit-load
// solution, solved once, and its field as |ΔT| times that solution's field,
// sampled once per grid size. GET /stats reports the machinery under
// "solver": assemblies built vs reused, warm-start hit rate, and total
// iterations; per-scenario SSE events carry iterations, residual, precond,
// and warmStart. See docs/SOLVER_TUNING.md for guidance and measurements.
//
// The rules behind "auto" are fixed in code and measured in
// docs/SOLVER_TUNING.md: IC0 at every lattice size, factored in the
// lattice's two-ended order and stored in float32. The IC0 ordering and
// precision are not settable, so each lattice holds one factor and a
// request gets the same answer at any -workers or core count. Requests that
// name "ordering" or "precision" get a 400.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	morestress "repro"
	"repro/internal/romcache"
	"repro/internal/router"
	"repro/internal/serveapi"
	"repro/internal/wal"
)

//stressvet:gang -- one goroutine carries ListenAndServe so main can select on shutdown signals
func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent engine jobs (0 = GOMAXPROCS), split across shards")
	shards := flag.Int("shards", 1,
		"independent engine shards behind this listener; requests route by lattice key so each lattice's caches live in exactly one shard")
	cacheBytes := flag.Int64("cache-bytes", romcache.DefaultMaxBytes, "in-memory ROM cache byte budget")
	cacheEntries := flag.Int("cache-entries", 0, "optional ROM cache entry cap on top of the byte budget (0 = bytes only)")
	cacheDir := flag.String("cache-dir", "", "directory for ROM disk spill (empty disables)")
	queueDepth := flag.Int("queue-depth", 64, "async job queue capacity (backlog beyond it gets 429)")
	jobWorkers := flag.Int("job-workers", 1, "async jobs solving concurrently")
	jobTTL := flag.Duration("job-ttl", 10*time.Minute, "finished async job retention before GC")
	jobFieldBudget := flag.Int64("job-field-budget", serveapi.DefaultJobFieldBudget,
		"aggregate field samples across tracked async jobs, 429 beyond it (0 = unlimited)")
	journalDir := flag.String("journal-dir", "",
		"directory for the async job journal: accepted jobs are fsynced and recovered after a crash (empty disables durability)")
	assemblyBytes := flag.Int64("assembly-bytes", 1<<30,
		"byte budget of the assemble-once cache of reduced global matrices, counting the preconditioners, direct Cholesky factors and unit-load solutions cached on them (0 = entry-count bound only)")
	flag.Parse()

	engineOpt := morestress.EngineOptions{
		Workers:       *workers,
		CacheBytes:    *cacheBytes,
		CacheEntries:  *cacheEntries,
		CacheDir:      *cacheDir,
		AssemblyBytes: *assemblyBytes,
	}
	var solver morestress.Solver
	var perShard func() []morestress.EngineStats
	if *shards > 1 {
		sh := router.NewShards(*shards, engineOpt)
		solver, perShard = sh, sh.PerShard
	} else {
		solver = morestress.NewEngine(engineOpt)
	}
	var journal *wal.Log
	if *journalDir != "" {
		var err error
		journal, err = wal.Open(*journalDir, wal.Options{})
		if err != nil {
			log.Fatal(err)
		}
	}
	queue, err := serveapi.NewQueue(solver, *queueDepth, *jobWorkers, *jobTTL, *jobFieldBudget, journal)
	if err != nil {
		log.Fatal(err)
	}
	srv := serveapi.New(solver, queue)
	srv.Journal = journal
	srv.PerShard = perShard

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// then close the queue so queued jobs land in a terminal state and
	// in-flight ones stop at their next scenario boundary.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Routes()}
	errc := make(chan error, 1)
	if journal != nil {
		// The listener comes up before the journal replay so probes can see
		// the process alive (/healthz 200) but not yet live (/readyz 503):
		// a router keeps this replica's keyspace on its failover shard until
		// recovery completes instead of timing the process out.
		srv.BeginRecovery()
	}
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serve: listening on %s (shards %d, cache %d MiB budget, spill %q, queue depth %d, job ttl %v, journal %q)",
		*addr, *shards, *cacheBytes>>20, *cacheDir, *queueDepth, *jobTTL, *journalDir)
	if journal != nil {
		// Replay the journal, then flip ready: jobs accepted by the previous
		// process re-enter the queue (or come back finished) under their
		// original IDs.
		rec, err := queue.Recover()
		if err != nil {
			queue.Close()
			journal.Close()
			log.Fatalf("serve: journal recovery: %v", err)
		}
		srv.FinishRecovery()
		log.Printf("serve: journal %s: %d records replayed, %d jobs requeued, %d restored, %d expired; ready",
			*journalDir, rec.Records, rec.Requeued, rec.Restored, rec.Expired)
	}
	select {
	case err := <-errc:
		// The listener died on its own (port taken, socket error): still
		// close the queue so running jobs stop at a scenario boundary and
		// journaled state lands, instead of abandoning them mid-solve.
		srv.BeginShutdown()
		queue.Close()
		if journal != nil {
			journal.Close()
		}
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("serve: shutting down")
	// Release SSE streams first: subscribers never see queue events during
	// shutdown, so without this Shutdown would wait out its whole deadline
	// on any attached stream.
	srv.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("serve: shutdown: %v", err)
	}
	queue.Close()
	if journal != nil {
		journal.Close()
	}
}
