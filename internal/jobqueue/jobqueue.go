// Package jobqueue is the asynchronous job layer of the serving stack: a
// bounded FIFO of multi-scenario solve jobs over the batch Engine. A caller
// submits a job and gets an ID back immediately instead of holding a
// connection for the whole solve; the job's lifecycle
//
//	pending ──▶ running ──▶ done | failed
//	   │            │
//	   └────────────┴─────▶ cancelled
//
// is observable by polling (Get), by subscription (Subscribe, the feed
// behind the server's SSE endpoint), or in aggregate (Stats). The FIFO is
// bounded: when Depth jobs are already queued, Submit fails with
// ErrQueueFull so the HTTP layer can push back (429) instead of buffering
// without limit. Finished jobs — done, failed, or cancelled — are retained
// for TTL so results can be fetched after completion, then garbage-collected;
// each finished scenario is held as a compact Result, without the solution
// vectors.
//
// Scenarios within a job run sequentially through the SolveFunc (the Engine
// parallelizes internally, and the queue's Workers setting runs that many
// jobs concurrently); each completed scenario emits a progress event.
// Cancellation is cooperative: a pending job never starts, a running job
// stops at the next scenario boundary (its context is cancelled, so a
// context-aware SolveFunc may stop sooner), and already-finished jobs
// cannot be cancelled.
package jobqueue

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	morestress "repro"
	"repro/internal/wal"
)

// State is a job lifecycle state.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event types delivered to subscribers.
const (
	// EventState announces a lifecycle transition; State carries the new
	// state.
	EventState = "state"
	// EventScenario announces one completed scenario; Scenario is its index
	// and Completed/Failed the running totals.
	EventScenario = "scenario"
)

// Event is one observable job transition.
type Event struct {
	Type  string `json:"type"`
	JobID string `json:"jobId"`
	State State  `json:"state"`
	// Scenario is the index of the scenario an EventScenario reports
	// (0 for EventState events, whose index is meaningless).
	Scenario int `json:"scenario"`
	// Completed and Failed are scenario counts at event time; Total is the
	// job's scenario count.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Total     int `json:"total"`
	// Err carries the scenario error of a failed EventScenario, or the
	// job-level error of a failed terminal EventState.
	Err string `json:"error,omitempty"`
	// Iterations, Residual, Precond, and WarmStart surface the global-stage
	// solver outcome of a successful iterative EventScenario: how many
	// PCG/GMRES iterations the scenario took, its final relative residual,
	// the resolved preconditioner, and whether the answer was scaled from
	// the lattice's cached unit-load solution (0 iterations) instead of
	// solved. Zero/empty for state events,
	// failed scenarios, and direct solves.
	Iterations int `json:"iterations,omitempty"`
	// PrecondCached reports that the scenario's preconditioner came from
	// the lattice assembly's cache instead of being built by the solve.
	PrecondCached bool    `json:"precondCached,omitempty"`
	Residual      float64 `json:"residual,omitempty"`
	Precond       string  `json:"precond,omitempty"`
	// Precision is the storage precision the preconditioner factor was
	// held in ("float32" for the mixed-precision IC0 path, "float64"
	// otherwise); empty for state events, failures, and direct solves.
	Precision string `json:"precision,omitempty"`
	WarmStart bool   `json:"warmStart,omitempty"`
}

// SolveFunc solves one scenario. The context is the job's: it is cancelled
// when the job is cancelled or the queue closes, and implementations may
// honor it mid-solve or ignore it (the queue always stops at the next
// scenario boundary). A scenario failure is reported either through the
// result's Err field or the returned error; it does not abort the job.
type SolveFunc func(ctx context.Context, scenario morestress.Job) (*morestress.JobResult, error)

// Options configures a Queue.
type Options struct {
	// Depth bounds the pending FIFO (default 64). When Depth jobs are
	// queued and unclaimed, Submit returns ErrQueueFull.
	Depth int
	// Workers is the number of jobs solving concurrently (default 1:
	// strict FIFO — the engine underneath parallelizes within a job).
	Workers int
	// TTL is how long finished jobs (and their results) are retained
	// before garbage collection (default 10 minutes).
	TTL time.Duration
	// GCInterval is the sweep period (default TTL/10, clamped to
	// [100ms, 1min]).
	GCInterval time.Duration
	// MaxCost bounds the aggregate cost of every tracked job — queued,
	// running, and finished-but-retained (0 = unlimited). Each Submit
	// declares its job's cost in caller-defined units (the HTTP layer uses
	// field sample counts, the only term of a retained Result that grows
	// with the request) in two parts: what the finished job retains,
	// released when it expires or is deleted, and what only its run holds,
	// released when it reaches a terminal state. Submit returns
	// ErrOverloaded while the budget is exhausted, so results held for the
	// TTL cannot accumulate without bound.
	MaxCost int64
	// Solve runs one scenario; required.
	Solve SolveFunc

	// Journal, when set, makes accepted work durable: Submit fsyncs a
	// record before returning (an accepted job is on disk), lifecycle
	// transitions and scenario completions follow, and Queue.Recover
	// replays the log after a restart. The queue owns appends and
	// compaction for the log but not its lifetime — the caller closes it
	// after Close returns. See journal.go for the record format and
	// recovery semantics.
	Journal *wal.Log
	// CompactBytes is the journal size that triggers compaction into a
	// snapshot of the currently tracked jobs (default 4 MiB).
	CompactBytes int64

	// now overrides the clock in tests.
	now func() time.Time
	// newID overrides job ID generation in tests (collision injection).
	newID func() (string, error)
}

// Snapshot is a point-in-time copy of a job's observable state.
type Snapshot struct {
	ID    string
	State State
	// Meta is the opaque value passed to Submit.
	Meta any
	// Total, Completed, and Failed count scenarios; Failed is the subset of
	// Completed that errored.
	Total, Completed, Failed int
	// Submitted, Started, Finished are lifecycle timestamps (zero until
	// reached).
	Submitted, Started, Finished time.Time
	// Wait is queue time (Submit to start, or to now while pending); Run is
	// solve time (start to finish, or to now while running).
	Wait, Run time.Duration
	// Results holds one entry per completed scenario, in submission order.
	Results []Result
	// Err is the job-level failure message, set when State is failed.
	Err string
}

// Result is the compact outcome of one finished scenario. It is what a job
// retains for its TTL, what the scenario's event reports, and what its 'C'
// journal record holds, so a job recovered from the journal reads exactly
// like the live one. NewResult converts the SolveFunc's JobResult once, when
// the scenario finishes: the runtime solution graph (the global solution
// vectors, the problem snapshot, the lattice) is not kept, and the sampled
// field only where the job's meta asks for it (see Submit).
//
// The field names are the journal's gob names; renaming one stops older
// journals from restoring it.
type Result struct {
	// Index is the scenario's position in the job.
	Index int
	// Err is the scenario's failure message, empty on success; a failed
	// scenario carries nothing below Total.
	Err              string
	CacheHit         bool
	LocalWait, Total time.Duration
	// Stats is the global solve's report; its Ordering and Precision mirror
	// the solution's.
	Stats      morestress.SolverStats
	GlobalTime time.Duration
	GlobalDoFs int
	// Iterative reports a GMRES/PCG global solve (ArrayResult.Iterative):
	// only then do Stats' preconditioner, ordering, precision and
	// warm-start fields, PrecondShared and PrecisionFallback mean anything.
	Iterative         bool
	PrecondShared     bool
	PrecisionFallback bool
	// MaxVonMises is the peak of the sampled field (0 without one); it is
	// kept when the field itself is dropped.
	MaxVonMises float64
	// VM is the sampled von Mises field, nil when none was sampled or the
	// job's meta did not ask to keep it.
	VM *morestress.Field
}

// NewResult converts a scenario's JobResult into its compact retained form,
// keeping the sampled field only when keepField is set.
func NewResult(r *morestress.JobResult, keepField bool) Result {
	out := Result{Index: r.Index, CacheHit: r.CacheHit, LocalWait: r.LocalWait, Total: r.Total}
	if r.Err != nil {
		out.Err = r.Err.Error()
		return out
	}
	a := r.Result
	if a == nil {
		return out
	}
	out.Stats, out.GlobalTime, out.GlobalDoFs = a.Stats, a.GlobalTime, a.GlobalDoFs
	if a.Iterative() {
		out.Iterative = true
		out.PrecondShared = a.Solution.PrecondShared
		out.PrecisionFallback = a.Solution.PrecisionFallback
	}
	if a.VM != nil {
		out.MaxVonMises = a.VM.Max()
		if keepField {
			out.VM = a.VM
		}
	}
	return out
}

// keepField reports whether scenario i of a job with this meta keeps its
// sampled field: metas with a KeepField method decide, any other meta
// keeps every field.
func keepField(meta any, i int) bool {
	k, ok := meta.(interface{ KeepField(i int) bool })
	return !ok || k.KeepField(i)
}

// scenarioEvent is the EventScenario that reports r.
func scenarioEvent(r Result) Event {
	ev := Event{Type: EventScenario, Scenario: r.Index, Err: r.Err}
	if r.Err == "" && r.Iterative {
		ev.Iterations = r.Stats.Iterations
		ev.Residual = r.Stats.Residual
		ev.Precond = r.Stats.Precond.String()
		ev.Precision = r.Stats.Precision.String()
		ev.WarmStart = r.Stats.Warm
		ev.PrecondCached = r.PrecondShared
	}
	return ev
}

// Stats aggregates a queue.
type Stats struct {
	// Depth is the number of queued FIFO entries; Capacity its bound.
	Depth, Capacity int
	// Running is the number of jobs currently solving.
	Running int
	// Retained is the number of jobs currently tracked (any state).
	Retained int
	// Submitted..Cancelled are lifetime job counters.
	Submitted, Done, Failed, Cancelled int64
	// ScenariosSolved counts completed scenarios (including failed ones);
	// SolveTime is their cumulative wall time.
	ScenariosSolved int64
	SolveTime       time.Duration
	// Expired counts finished jobs dropped by TTL garbage collection.
	Expired int64
	// RetainedCost is the summed cost every tracked job holds now (its
	// running part only until it finishes); MaxCost its budget (0 =
	// unlimited).
	RetainedCost, MaxCost int64
	// JournalErrors counts journal appends that failed after the job was
	// already accepted (the job still runs; a crash before its terminal
	// record lands re-runs it at recovery). Zero without a journal.
	JournalErrors int64
}

// Sentinel errors returned by Submit and Cancel.
var (
	ErrQueueFull   = errors.New("jobqueue: queue full")
	ErrOverloaded  = errors.New("jobqueue: retained-result budget exhausted; retry after results expire")
	ErrClosed      = errors.New("jobqueue: queue closed")
	ErrNotFound    = errors.New("jobqueue: no such job")
	ErrFinished    = errors.New("jobqueue: job already finished")
	ErrNoScenarios = errors.New("jobqueue: job has no scenarios")
)

// job is the internal record behind an ID.
type job struct {
	id        string
	scenarios []morestress.Job
	meta      any
	cost      int64 // held until the job expires
	running   int64 // held until the job reaches a terminal state
	budget    *atomic.Int64
	seq       int64 // admission order, assigned under Queue.mu; immutable after
	ctx       context.Context
	cancel    context.CancelFunc

	mu sync.Mutex
	// All fields below are guarded by mu.
	state     State              // guarded by mu
	submitted time.Time          // guarded by mu
	started   time.Time          // guarded by mu
	finished  time.Time          // guarded by mu
	completed int                // guarded by mu
	failed    int                // guarded by mu
	results   []Result           // guarded by mu
	err       error              // guarded by mu
	events    []Event            // guarded by mu
	subs      map[int]chan Event // guarded by mu
	nextSub   int                // guarded by mu
}

// Queue is a bounded asynchronous job queue; safe for concurrent use.
//
// Lock order: q.mu before j.mu, never the reverse.
type Queue struct {
	opt Options
	// notify wakes idle workers; pending jobs live in the slice below so
	// cancellation can remove them immediately (a buffered channel would
	// let cancelled carcasses hold queue capacity until a worker drained
	// them).
	notify chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	mu sync.Mutex
	// guarded by mu
	jobs      map[string]*job
	pending   []*job       // guarded by mu; FIFO: pending[0] runs next
	closed    bool         // guarded by mu
	nextSeq   int64        // guarded by mu; admission counter behind job.seq
	recovered RecoverStats // guarded by mu; result of the startup Recover

	running atomic.Int64
	// cost is the summed cost every tracked job holds. It grows only under
	// mu (admission), so a check-then-add there is exact; a job's running
	// part is released when the job finishes, under its own lock.
	cost                      atomic.Int64
	submitted, jobsDone       atomic.Int64
	jobsFailed, jobsCancelled atomic.Int64
	scenariosSolved, expired  atomic.Int64
	solveNanos                atomic.Int64
	journalErrors             atomic.Int64
}

// New creates a queue and starts its workers and garbage collector.
// Options.Solve is required. Call Close to stop.
//
//stressvet:gang -- opt.Workers resident job workers plus one GC loop, all joined on Close
func New(opt Options) (*Queue, error) {
	if opt.Solve == nil {
		return nil, errors.New("jobqueue: Options.Solve is required")
	}
	if opt.Depth <= 0 {
		opt.Depth = 64
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.TTL <= 0 {
		opt.TTL = 10 * time.Minute
	}
	if opt.GCInterval <= 0 {
		opt.GCInterval = opt.TTL / 10
		if opt.GCInterval < 100*time.Millisecond {
			opt.GCInterval = 100 * time.Millisecond
		}
		if opt.GCInterval > time.Minute {
			opt.GCInterval = time.Minute
		}
	}
	if opt.CompactBytes <= 0 {
		opt.CompactBytes = 4 << 20
	}
	if opt.now == nil {
		opt.now = time.Now
	}
	if opt.newID == nil {
		opt.newID = newID
	}
	q := &Queue{
		opt:    opt,
		notify: make(chan struct{}, opt.Workers),
		done:   make(chan struct{}),
		jobs:   make(map[string]*job),
	}
	for w := 0; w < opt.Workers; w++ {
		q.wg.Add(1)
		go q.worker()
	}
	q.wg.Add(1)
	go q.gcLoop()
	return q, nil
}

// Submit enqueues a job of one or more scenarios and returns its ID without
// waiting for it to run. meta is an opaque per-job value handed back in
// every Snapshot (the HTTP layer stores response-shaping flags there); when
// it has a KeepField(i int) bool method, scenario i keeps its sampled field
// only where that returns true (any other meta keeps every field). cost
// draws from Options.MaxCost for the job's tracked lifetime and running
// only until the job finishes (pass 0s when no budget is configured).
// Returns ErrQueueFull when the FIFO is at capacity
// and ErrOverloaded when the cost budget is exhausted — the two
// backpressure signals — and ErrClosed after Close.
func (q *Queue) Submit(scenarios []morestress.Job, meta any, cost, running int64) (string, error) {
	if len(scenarios) == 0 {
		return "", ErrNoScenarios
	}
	if q.opt.Journal != nil {
		for _, sc := range scenarios {
			if !journalable(sc) {
				return "", ErrNotJournalable
			}
		}
	}
	ctx, cancel := newJobContext()
	j := &job{
		scenarios: scenarios,
		meta:      meta,
		cost:      cost,
		running:   running,
		budget:    &q.cost,
		ctx:       ctx,
		cancel:    cancel,
		state:     StatePending,
		submitted: q.opt.now(),
		subs:      make(map[int]chan Event),
	}

	q.mu.Lock()
	switch {
	case q.closed:
		q.mu.Unlock()
		cancel()
		return "", ErrClosed
	case len(q.pending) >= q.opt.Depth:
		q.mu.Unlock()
		cancel()
		return "", ErrQueueFull
	case q.opt.MaxCost > 0 && q.cost.Load()+cost+running > q.opt.MaxCost:
		q.mu.Unlock()
		cancel()
		return "", ErrOverloaded
	}
	// The ID is generated under q.mu so a collision with a tracked job is
	// detected and retried instead of silently replacing the old entry
	// (which would strand its subscribers and double-count its cost).
	id, err := q.newIDLocked()
	if err != nil {
		q.mu.Unlock()
		cancel()
		return "", err
	}
	j.id = id
	j.seq = q.nextSeq
	q.nextSeq++
	q.jobs[id] = j
	q.pending = append(q.pending, j)
	q.cost.Add(cost + running)
	// Publish the pending event while still holding q.mu: workers pop
	// under the same lock, so no later event can precede it.
	j.mu.Lock()
	j.publishLocked(Event{Type: EventState, State: StatePending})
	j.mu.Unlock()
	// Journal after admission (compaction snapshots walk q.jobs under this
	// same lock, so the record cannot fall between append and insert) but
	// before the ID is released: acceptance means the record is on disk.
	if q.opt.Journal != nil {
		wire := make([]jobWire, len(scenarios))
		for i, sc := range scenarios {
			wire[i] = toJobWire(sc)
		}
		rec := submitRec{ID: id, Submitted: j.submitted, Cost: cost, Running: running, Scenarios: wire, Meta: meta}
		if err := q.journalLocked(recSubmit, rec); err != nil {
			// Undo the admission: a job whose acceptance never reached
			// disk was never accepted.
			delete(q.jobs, id)
			q.pending = q.pending[:len(q.pending)-1]
			q.cost.Add(-cost - running)
			q.mu.Unlock()
			cancel()
			return "", fmt.Errorf("jobqueue: journal submit: %w", err)
		}
	}
	q.mu.Unlock()

	q.submitted.Add(1)
	q.wake()
	return id, nil
}

// newIDLocked generates a job ID no tracked job already uses, retrying on
// the (vanishingly rare) 8-byte collision. Callers hold q.mu.
func (q *Queue) newIDLocked() (string, error) {
	for attempt := 0; ; attempt++ {
		id, err := q.opt.newID()
		if err != nil {
			return "", err
		}
		if _, taken := q.jobs[id]; !taken {
			return id, nil
		}
		if attempt >= 16 {
			return "", errors.New("jobqueue: could not generate an unused job id")
		}
	}
}

func newJobContext() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// wake nudges one idle worker; a full buffer means enough wake-ups are
// already outstanding (pop re-arms the signal while jobs remain queued).
func (q *Queue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// pop removes and returns the next pending job, nil when the queue is
// empty.
func (q *Queue) pop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return nil
	}
	j := q.pending[0]
	q.pending[0] = nil
	q.pending = q.pending[1:]
	if len(q.pending) > 0 {
		q.wake()
	}
	return j
}

// Get returns a snapshot of the job, or false if the ID is unknown (never
// submitted, or already garbage-collected).
func (q *Queue) Get(id string) (Snapshot, bool) {
	j := q.lookup(id)
	if j == nil {
		return Snapshot{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked(q.opt.now()), true
}

// Cancel cancels a job: a pending job becomes cancelled and never runs; a
// running job's context is cancelled and it stops at the next scenario
// boundary, keeping the scenarios already solved. Returns ErrNotFound for
// unknown IDs and ErrFinished when the job already reached a terminal state.
func (q *Queue) Cancel(id string) error {
	q.mu.Lock()
	j := q.jobs[id]
	if j == nil {
		q.mu.Unlock()
		return ErrNotFound
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		q.mu.Unlock()
		return ErrFinished
	case j.state == StatePending:
		// Drop the job from the FIFO so it stops holding queue capacity
		// (it may already be popped but unclaimed; the worker's claim
		// check skips it either way).
		for i, p := range q.pending {
			if p == j {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				break
			}
		}
		now := q.opt.now()
		q.jobsCancelled.Add(1)
		j.finishLocked(StateCancelled, nil, now)
		j.mu.Unlock()
		// Journal the cancellation under q.mu alone: compaction inside the
		// append takes every job's lock, so j.mu must be free here.
		if err := q.journalLocked(recState, stateRec{ID: id, State: StateCancelled, Time: now}); err != nil {
			q.journalErrors.Add(1)
		}
		q.mu.Unlock()
	default: // running: the worker observes the context and finishes it.
		j.mu.Unlock()
		q.mu.Unlock()
	}
	j.cancel()
	return nil
}

// Subscribe returns a channel of the job's events: the full history so far
// is replayed first, then live events follow. The channel is closed after
// the terminal event (immediately, for already-finished jobs). The returned
// stop function detaches the subscription; it is safe to call more than
// once. ok is false for unknown IDs.
func (q *Queue) Subscribe(id string) (events <-chan Event, stop func(), ok bool) {
	j := q.lookup(id)
	if j == nil {
		return nil, nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// A job emits at most one event per scenario plus one per lifecycle
	// transition, so this capacity guarantees publishLocked never blocks and no
	// event is ever dropped.
	ch := make(chan Event, len(j.scenarios)+8)
	for _, ev := range j.events {
		ch <- ev
	}
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}, true
	}
	idx := j.nextSub
	j.nextSub++
	j.subs[idx] = ch
	var once sync.Once
	stop = func() {
		once.Do(func() {
			j.mu.Lock()
			defer j.mu.Unlock()
			if _, live := j.subs[idx]; live {
				delete(j.subs, idx)
				close(ch)
			}
		})
	}
	return ch, stop, true
}

// Stats returns a snapshot of the queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	retained := len(q.jobs)
	depth := len(q.pending)
	q.mu.Unlock()
	return Stats{
		Depth:           depth,
		RetainedCost:    q.cost.Load(),
		MaxCost:         q.opt.MaxCost,
		Capacity:        q.opt.Depth,
		Running:         int(q.running.Load()),
		Retained:        retained,
		Submitted:       q.submitted.Load(),
		Done:            q.jobsDone.Load(),
		Failed:          q.jobsFailed.Load(),
		Cancelled:       q.jobsCancelled.Load(),
		ScenariosSolved: q.scenariosSolved.Load(),
		SolveTime:       time.Duration(q.solveNanos.Load()),
		Expired:         q.expired.Load(),
		JournalErrors:   q.journalErrors.Load(),
	}
}

// Accepting reports whether the queue takes new submissions: true until
// Close. It is a readiness signal, not an admission guarantee — a
// concurrent Submit can still hit ErrQueueFull or ErrOverloaded.
func (q *Queue) Accepting() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.closed
}

// Recovered reports what the startup Recover call reconstructed (zero
// before Recover, or without a journal).
func (q *Queue) Recovered() RecoverStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recovered
}

// Close stops the workers and the garbage collector, lands every
// still-queued job in the cancelled state (closing its subscribers), and
// cancels the context of running jobs, then waits for in-flight work to
// stop. Submitting to a closed queue returns ErrClosed; Get still serves
// retained jobs.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	// Queued jobs will never run: finish them now so pollers see a
	// terminal state and subscribers unblock. The cancellations are
	// journaled (j.mu released first — compaction takes every job lock)
	// so a restart does not resurrect work this shutdown already refused.
	for _, j := range q.pending {
		j.mu.Lock()
		if j.state != StatePending {
			j.mu.Unlock()
			continue
		}
		now := q.opt.now()
		q.jobsCancelled.Add(1)
		j.finishLocked(StateCancelled, nil, now)
		j.mu.Unlock()
		if err := q.journalLocked(recState, stateRec{ID: j.id, State: StateCancelled, Time: now}); err != nil {
			q.journalErrors.Add(1)
		}
	}
	q.pending = nil
	jobs := make([]*job, 0, len(q.jobs))
	for _, j := range q.jobs {
		jobs = append(jobs, j)
	}
	q.mu.Unlock()
	close(q.done)
	for _, j := range jobs {
		j.cancel()
	}
	q.wg.Wait()
}

func (q *Queue) lookup(id string) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.jobs[id]
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.done:
			return
		case <-q.notify:
		}
		for {
			j := q.pop()
			if j == nil {
				break
			}
			q.run(j)
			select {
			case <-q.done:
				return
			default:
			}
		}
	}
}

// run executes one job: claim it (skipping jobs cancelled while queued),
// solve each scenario in order, and land it in a terminal state.
func (q *Queue) run(j *job) {
	j.mu.Lock()
	if j.state != StatePending {
		// Cancelled while queued; Cancel already finished it.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = q.opt.now()
	started := j.started
	j.publishLocked(Event{Type: EventState, State: StateRunning})
	j.mu.Unlock()
	q.journalBestEffort(recState, stateRec{ID: j.id, State: StateRunning, Time: started})

	q.running.Add(1)
	defer q.running.Add(-1)

	for i, sc := range j.scenarios {
		if j.ctx.Err() != nil {
			now := q.opt.now()
			q.jobsCancelled.Add(1)
			j.mu.Lock()
			j.finishLocked(StateCancelled, nil, now)
			j.mu.Unlock()
			q.journalBestEffort(recState, stateRec{ID: j.id, State: StateCancelled, Time: now})
			return
		}
		start := q.opt.now()
		res, err := q.opt.Solve(j.ctx, sc)
		if res == nil {
			res = &morestress.JobResult{Err: err}
		}
		if res.Err == nil && err != nil {
			res.Err = err
		}
		// A scenario that errored after the job's context was cancelled
		// was interrupted, not solved: a context-aware SolveFunc bails
		// with ctx.Err(). Record nothing for it — a phantom failed
		// scenario would flip the terminal state to failed when the
		// cancel lands on the last scenario — and finish the job.
		if j.ctx.Err() != nil && res.Err != nil {
			now := q.opt.now()
			q.jobsCancelled.Add(1)
			j.mu.Lock()
			j.finishLocked(StateCancelled, nil, now)
			j.mu.Unlock()
			q.journalBestEffort(recState, stateRec{ID: j.id, State: StateCancelled, Time: now})
			return
		}
		q.solveNanos.Add(int64(q.opt.now().Sub(start)))
		q.scenariosSolved.Add(1)
		r := NewResult(res, keepField(j.meta, i))
		r.Index = i
		j.mu.Lock()
		j.addResultLocked(r)
		j.mu.Unlock()
		q.journalBestEffort(recScenario, scenarioRec{ID: j.id, Result: r})
	}

	// Every scenario was recorded (interrupted ones return inside the
	// loop), so completed == len(scenarios) here: the job ran to the end
	// even if its context was cancelled late, and the outcome is decided
	// by the scenario errors alone.
	now := q.opt.now()
	j.mu.Lock()
	state, jerr := StateDone, error(nil)
	if j.failed > 0 {
		state = StateFailed
		jerr = fmt.Errorf("%d of %d scenarios failed", j.failed, len(j.scenarios))
	}
	if state == StateFailed {
		q.jobsFailed.Add(1)
	} else {
		q.jobsDone.Add(1)
	}
	j.finishLocked(state, jerr, now)
	j.mu.Unlock()
	rec := stateRec{ID: j.id, State: state, Time: now}
	if jerr != nil {
		rec.Err = jerr.Error()
	}
	q.journalBestEffort(recState, rec)
}

// addResultLocked records one finished scenario and publishes its event.
// Callers hold j.mu.
func (j *job) addResultLocked(r Result) {
	j.results = append(j.results, r)
	j.completed++
	if r.Err != "" {
		j.failed++
	}
	j.publishLocked(scenarioEvent(r))
}

// finishLocked lands the job in a terminal state, publishes the final event,
// closes every subscriber, and releases the job's running cost. Callers hold
// j.mu, and bump the queue's terminal counter first, so Stats read by anyone
// who sees the terminal state already count the job.
func (j *job) finishLocked(s State, err error, now time.Time) {
	j.budget.Add(-j.running)
	j.state = s
	j.err = err
	j.finished = now
	ev := Event{Type: EventState, State: s}
	if err != nil {
		ev.Err = err.Error()
	}
	j.publishLocked(ev)
	for idx, ch := range j.subs {
		delete(j.subs, idx)
		close(ch)
	}
	j.cancel()
}

// publishLocked appends the event to the job's history and fans it out. Callers
// hold j.mu. Subscriber channels are sized so the send never blocks.
func (j *job) publishLocked(ev Event) {
	ev.JobID = j.id
	ev.Completed = j.completed
	ev.Failed = j.failed
	ev.Total = len(j.scenarios)
	if ev.State == "" {
		ev.State = j.state
	}
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // unreachable by construction; never block the worker
		}
	}
}

func (j *job) snapshotLocked(now time.Time) Snapshot {
	s := Snapshot{
		ID:        j.id,
		State:     j.state,
		Meta:      j.meta,
		Total:     len(j.scenarios),
		Completed: j.completed,
		Failed:    j.failed,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Results:   append([]Result(nil), j.results...),
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	switch {
	case j.state == StatePending:
		s.Wait = now.Sub(j.submitted)
	case !j.started.IsZero():
		s.Wait = j.started.Sub(j.submitted)
	case !j.finished.IsZero():
		// Cancelled while still queued: the wait ended at cancellation.
		s.Wait = j.finished.Sub(j.submitted)
	}
	switch {
	case j.state == StateRunning:
		s.Run = now.Sub(j.started)
	case !j.finished.IsZero() && !j.started.IsZero():
		s.Run = j.finished.Sub(j.started)
	}
	return s
}

// gcLoop periodically drops finished jobs older than TTL.
func (q *Queue) gcLoop() {
	defer q.wg.Done()
	t := time.NewTicker(q.opt.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-q.done:
			return
		case <-t.C:
			q.gcSweep(q.opt.now())
		}
	}
}

// gcSweep removes finished jobs whose terminal state is older than TTL.
// A finished job is never dropped before its TTL, read or not.
func (q *Queue) gcSweep(now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for id, j := range q.jobs {
		j.mu.Lock()
		expired := j.state.Terminal() && now.Sub(j.finished) > q.opt.TTL
		j.mu.Unlock()
		if expired {
			delete(q.jobs, id)
			q.cost.Add(-j.cost)
			q.expired.Add(1)
		}
	}
}

func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobqueue: generate id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
