package jobqueue

// Journal: the queue's durability layer over internal/wal. When
// Options.Journal is set, every lifecycle transition that matters for
// recovery is appended (and fsynced) to the log before it is acknowledged:
//
//	'S' submit            job ID, scenarios, meta, cost, submit time
//	'T' state transition  running / done / failed / cancelled (+ time, error)
//	'C' scenario complete one scenario's outcome, positioned by index
//
// Submit journals synchronously under q.mu — the 202 the HTTP layer returns
// is only sent after the record is on disk, so an accepted job is a promise
// that survives kill -9. Recovery (Queue.Recover) replays the log:
//
//   - jobs that were pending or running when the process died re-enter the
//     pending FIFO in their original submission order with their original
//     IDs. Running jobs restart from scenario zero: scenario solves are
//     deterministic (same inputs, same outputs), so re-running is safe, and
//     any partially journaled results are superseded by the re-run's.
//   - finished jobs (done / failed / cancelled) are restored with their
//     journaled results and keep aging against the TTL from their original
//     finish time; ones already past the TTL are dropped.
//
// Replay application is idempotent: a repeated 'T' running record resets the
// accumulated results (the re-run restarts the job), and 'C' records place
// results by scenario index, so the records a crash duplicated or compaction
// raced overwrite rather than double-count.
//
// The log is compacted once it exceeds Options.CompactBytes: the snapshot
// re-emits, in submission order, the minimal records that reconstruct every
// tracked job, and the WAL swaps it in atomically. Compaction runs under
// q.mu — the same lock every append takes — so no record can fall between
// the snapshot and the swap.
//
// Journalable jobs: scenarios must survive serialization, so jobs carrying
// runtime-only values — a DeltaTMap closure, a prebuilt Options.M
// preconditioner, an Options.Work workspace — are rejected at Submit with
// ErrNotJournalable when a journal is configured. Meta is journaled as a gob
// interface value: callers must gob.Register their concrete meta type.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	morestress "repro"
)

// Record kind tags (first byte of every journal payload).
const (
	recSubmit   byte = 'S'
	recState    byte = 'T'
	recScenario byte = 'C'
)

// ErrNotJournalable is returned by Submit when a journal is configured and a
// scenario carries runtime-only state (DeltaTMap, Options.M, Options.Work)
// that cannot be serialized for replay.
var ErrNotJournalable = errors.New("jobqueue: job carries runtime-only state (DeltaTMap / prebuilt preconditioner / workspace) and cannot be journaled")

// jobWire is the serializable projection of a morestress.Job: everything
// recovery needs to re-run the scenario, and nothing runtime-only.
type jobWire struct {
	Config      morestress.Config
	Rows, Cols  int
	DeltaT      float64
	GridSamples int
	Solver      morestress.SolverChoice
	Tol         float64
	MaxIter     int
	Restart     int
	Workers     int
	Precond     morestress.Precond
	Ordering    morestress.Ordering
	Precision   morestress.Precision
}

func toJobWire(j morestress.Job) jobWire {
	return jobWire{
		Config: j.Config, Rows: j.Rows, Cols: j.Cols,
		DeltaT: j.DeltaT, GridSamples: j.GridSamples, Solver: j.Solver,
		Tol: j.Options.Tol, MaxIter: j.Options.MaxIter, Restart: j.Options.Restart,
		Workers: j.Options.Workers, Precond: j.Options.Precond, Ordering: j.Options.Ordering,
		Precision: j.Options.Precision,
	}
}

// journaledRCM is the Ordering value the deleted reverse Cuthill–McKee IC0
// ordering was journaled as. The solver keeps the value reserved; replay
// re-runs such jobs under the natural ordering, the one RCM lost to.
const journaledRCM morestress.Ordering = 2

func (w jobWire) job() morestress.Job {
	if w.Ordering == journaledRCM {
		w.Ordering = morestress.OrderingNatural
	}
	return morestress.Job{
		Config: w.Config, Rows: w.Rows, Cols: w.Cols,
		DeltaT: w.DeltaT, GridSamples: w.GridSamples, Solver: w.Solver,
		Options: morestress.SolverOptions{
			Tol: w.Tol, MaxIter: w.MaxIter, Restart: w.Restart,
			Workers: w.Workers, Precond: w.Precond, Ordering: w.Ordering,
			Precision: w.Precision,
		},
	}
}

// journalable reports whether the scenario can round-trip through the
// journal.
func journalable(j morestress.Job) bool {
	return j.DeltaTMap == nil && j.Options.M == nil && j.Options.Work == nil
}

// resultWire is the serializable projection of a JobResult. The solve
// outcome — convergence, iterations, residual, the sampled field, timing —
// survives recovery; the runtime Solution graph (assembly snapshot,
// warm-start seed, preconditioner provenance) does not, so a restored
// result reports Iterative() false.
type resultWire struct {
	Index            int
	Err              string
	CacheHit         bool
	LocalWait, Total time.Duration
	HasResult        bool
	VM               *morestress.Field
	Stats            morestress.SolverStats
	GlobalTime       time.Duration
	GlobalDoFs       int
}

func toResultWire(r *morestress.JobResult) resultWire {
	w := resultWire{Index: r.Index, CacheHit: r.CacheHit, LocalWait: r.LocalWait, Total: r.Total}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	if r.Result != nil {
		w.HasResult = true
		w.VM = r.Result.VM
		w.Stats = r.Result.Stats
		w.GlobalTime = r.Result.GlobalTime
		w.GlobalDoFs = r.Result.GlobalDoFs
	}
	return w
}

func (w resultWire) result() *morestress.JobResult {
	r := &morestress.JobResult{Index: w.Index, CacheHit: w.CacheHit, LocalWait: w.LocalWait, Total: w.Total}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	if w.HasResult {
		r.Result = &morestress.ArrayResult{
			VM: w.VM, Stats: w.Stats,
			GlobalTime: w.GlobalTime, GlobalDoFs: w.GlobalDoFs,
		}
	}
	return r
}

// submitRec journals one accepted job.
type submitRec struct {
	ID        string
	Submitted time.Time
	Cost      int64
	Scenarios []jobWire
	Meta      any
}

// stateRec journals one lifecycle transition.
type stateRec struct {
	ID    string
	State State
	Time  time.Time
	Err   string
}

// scenarioRec journals one completed scenario.
type scenarioRec struct {
	ID     string
	Result resultWire
}

// encodeRecord frames one journal payload: a kind tag followed by the gob
// encoding of the record struct.
func encodeRecord(kind byte, v any) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(kind)
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("jobqueue: encode journal record %q: %w", kind, err)
	}
	return buf.Bytes(), nil
}

// journalLocked appends one record to the journal (no-op without one) and
// triggers compaction when the log is over budget. Callers hold q.mu.
func (q *Queue) journalLocked(kind byte, v any) error {
	jl := q.opt.Journal
	if jl == nil {
		return nil
	}
	p, err := encodeRecord(kind, v)
	if err != nil {
		return err
	}
	if err := jl.Append(p); err != nil {
		return err
	}
	if jl.Size() > q.opt.CompactBytes {
		if err := q.compactLocked(); err != nil {
			return fmt.Errorf("jobqueue: journal compaction: %w", err)
		}
	}
	return nil
}

// journalBestEffort appends a record whose loss only costs re-execution —
// state transitions and scenario completions, which recovery reconstructs by
// re-running the job. Append failures are counted, not propagated: the job
// itself proceeds. Takes q.mu; callers must not hold it (or j.mu).
func (q *Queue) journalBestEffort(kind byte, v any) {
	if q.opt.Journal == nil {
		return
	}
	q.mu.Lock()
	err := q.journalLocked(kind, v)
	q.mu.Unlock()
	if err != nil {
		q.journalErrors.Add(1)
	}
}

// compactLocked snapshots every tracked job into a fresh journal segment and
// drops the old ones. Callers hold q.mu; the per-job locks are taken briefly
// in the q.mu → j.mu order. The snapshot emits jobs in submission order so a
// replay re-enqueues survivors exactly as Recover expects.
func (q *Queue) compactLocked() error {
	jobs := make([]*job, 0, len(q.jobs))
	for _, j := range q.jobs {
		jobs = append(jobs, j)
	}
	// Submission order: seq is assigned under q.mu at admission.
	for i := 1; i < len(jobs); i++ {
		for k := i; k > 0 && jobs[k-1].seq > jobs[k].seq; k-- {
			jobs[k-1], jobs[k] = jobs[k], jobs[k-1]
		}
	}
	return q.opt.Journal.Compact(func(emit func([]byte) error) error {
		emitRec := func(kind byte, v any) error {
			p, err := encodeRecord(kind, v)
			if err != nil {
				return err
			}
			return emit(p)
		}
		for _, j := range jobs {
			j.mu.Lock()
			state, started, finished := j.state, j.started, j.finished
			errMsg := ""
			if j.err != nil {
				errMsg = j.err.Error()
			}
			results := make([]*morestress.JobResult, len(j.results))
			copy(results, j.results)
			j.mu.Unlock()

			scenarios := make([]jobWire, len(j.scenarios))
			for i, sc := range j.scenarios {
				scenarios[i] = toJobWire(sc)
			}
			if err := emitRec(recSubmit, submitRec{
				ID: j.id, Submitted: j.submitted, Cost: j.cost,
				Scenarios: scenarios, Meta: j.meta,
			}); err != nil {
				return err
			}
			if state == StateRunning {
				if err := emitRec(recState, stateRec{ID: j.id, State: StateRunning, Time: started}); err != nil {
					return err
				}
			}
			for _, r := range results {
				if err := emitRec(recScenario, scenarioRec{ID: j.id, Result: toResultWire(r)}); err != nil {
					return err
				}
			}
			if state.Terminal() {
				if err := emitRec(recState, stateRec{ID: j.id, State: state, Time: finished, Err: errMsg}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// RecoverStats reports what Queue.Recover reconstructed from the journal.
type RecoverStats struct {
	// Records is the number of journal records replayed.
	Records int
	// Requeued counts jobs that were pending or running at the crash and
	// re-entered the pending FIFO (original IDs, original order).
	Requeued int
	// Restored counts finished jobs whose results were reloaded and remain
	// fetchable until their TTL.
	Restored int
	// Expired counts finished jobs dropped because their terminal state was
	// already older than the TTL at recovery time.
	Expired int
}

// replayJob accumulates one job's journal records during Recover.
type replayJob struct {
	sub               submitRec
	seq               int64
	state             State
	started, finished time.Time
	errMsg            string
	results           []*resultWire // positioned by scenario index
}

// Recover replays the journal and rebuilds the queue's state: accepted jobs
// that never reached a terminal state re-enter the pending FIFO in their
// original order (running jobs restart from scenario zero — solves are
// deterministic, so the re-run reproduces the lost results), and finished
// jobs come back with their journaled results, aging against the TTL from
// their original finish time. Call it once, after New and before accepting
// traffic; without a journal it is a no-op. A decode failure on a
// checksum-valid record aborts recovery with an error — that is version
// drift or a bug, not crash damage, and silently dropping accepted jobs
// would break the queue's promise.
func (q *Queue) Recover() (RecoverStats, error) {
	var stats RecoverStats
	if q.opt.Journal == nil {
		return stats, nil
	}
	byID := make(map[string]*replayJob)
	var order []*replayJob
	err := q.opt.Journal.Replay(func(p []byte) error {
		stats.Records++
		if len(p) < 2 {
			return fmt.Errorf("jobqueue: journal record too short (%d bytes)", len(p))
		}
		dec := gob.NewDecoder(bytes.NewReader(p[1:]))
		switch kind := p[0]; kind {
		case recSubmit:
			var rec submitRec
			if err := dec.Decode(&rec); err != nil {
				return fmt.Errorf("jobqueue: decode submit record: %w", err)
			}
			if existing := byID[rec.ID]; existing != nil {
				// Duplicated submit (a compaction snapshot raced the
				// original append): refresh in place, keep the order slot.
				existing.sub = rec
				return nil
			}
			rj := &replayJob{sub: rec, seq: int64(len(order)), state: StatePending}
			byID[rec.ID] = rj
			order = append(order, rj)
		case recState:
			var rec stateRec
			if err := dec.Decode(&rec); err != nil {
				return fmt.Errorf("jobqueue: decode state record: %w", err)
			}
			rj := byID[rec.ID]
			if rj == nil {
				return nil // job compacted away concurrently with this append; harmless
			}
			rj.state = rec.State
			switch {
			case rec.State == StateRunning:
				// A (re-)run restarts the job from scenario zero: discard
				// results journaled by the previous attempt.
				rj.started, rj.results = rec.Time, nil
			case rec.State.Terminal():
				rj.finished, rj.errMsg = rec.Time, rec.Err
			}
		case recScenario:
			var rec scenarioRec
			if err := dec.Decode(&rec); err != nil {
				return fmt.Errorf("jobqueue: decode scenario record: %w", err)
			}
			rj := byID[rec.ID]
			if rj == nil {
				return nil
			}
			idx := rec.Result.Index
			if idx < 0 || idx >= len(rj.sub.Scenarios) {
				return fmt.Errorf("jobqueue: scenario record index %d outside job %s's %d scenarios", idx, rec.ID, len(rj.sub.Scenarios))
			}
			for len(rj.results) <= idx {
				rj.results = append(rj.results, nil)
			}
			w := rec.Result
			rj.results[idx] = &w
		default:
			return fmt.Errorf("jobqueue: unknown journal record kind %q", kind)
		}
		return nil
	})
	if err != nil {
		return stats, err
	}

	now := q.opt.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	requeued := false
	for _, rj := range order {
		switch {
		case rj.state.Terminal():
			if now.Sub(rj.finished) > q.opt.TTL {
				stats.Expired++
				continue
			}
			q.restoreLocked(rj)
			stats.Restored++
		default:
			q.requeueLocked(rj)
			stats.Requeued++
			requeued = true
		}
	}
	q.recovered = stats
	if requeued {
		q.wake()
	}
	return stats, nil
}

// requeueLocked re-admits a non-terminal journaled job as pending, keeping
// its original ID, submission time, and FIFO position (callers iterate in
// journal order). Callers hold q.mu. Recovered jobs are admitted even past
// Depth or MaxCost: they were already accepted, and an accepted job is a
// promise.
func (q *Queue) requeueLocked(rj *replayJob) {
	j := q.newJobLocked(rj)
	q.pending = append(q.pending, j)
	j.mu.Lock()
	j.publishLocked(Event{Type: EventState, State: StatePending})
	j.mu.Unlock()
	q.submitted.Add(1)
}

// restoreLocked rebuilds a finished journaled job — results, terminal state,
// and a synthesized event history so a late subscriber still sees a coherent
// replay. Callers hold q.mu.
func (q *Queue) restoreLocked(rj *replayJob) {
	j := q.newJobLocked(rj)
	j.started, j.finished = rj.started, rj.finished
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(Event{Type: EventState, State: StatePending})
	if !rj.started.IsZero() || rj.state != StateCancelled {
		j.state = StateRunning
		j.publishLocked(Event{Type: EventState, State: StateRunning})
	}
	for _, w := range rj.results {
		if w == nil {
			continue // hole from a lost record; the surviving results keep their indices
		}
		res := w.result()
		j.results = append(j.results, res)
		j.completed++
		ev := Event{Type: EventScenario, Scenario: res.Index}
		if res.Err != nil {
			j.failed++
			ev.Err = res.Err.Error()
		}
		j.publishLocked(ev)
	}
	var jerr error
	if rj.errMsg != "" {
		jerr = errors.New(rj.errMsg)
	}
	j.finishLocked(rj.state, jerr, rj.finished)
	q.submitted.Add(1)
	switch rj.state {
	case StateDone:
		q.jobsDone.Add(1)
	case StateFailed:
		q.jobsFailed.Add(1)
	case StateCancelled:
		q.jobsCancelled.Add(1)
	}
}

// newJobLocked builds the in-memory job record for a replayed submission and
// tracks it (jobs map, cost, sequence). Callers hold q.mu.
func (q *Queue) newJobLocked(rj *replayJob) *job {
	scenarios := make([]morestress.Job, len(rj.sub.Scenarios))
	for i, w := range rj.sub.Scenarios {
		scenarios[i] = w.job()
	}
	ctx, cancel := newJobContext()
	j := &job{
		id:        rj.sub.ID,
		scenarios: scenarios,
		meta:      rj.sub.Meta,
		cost:      rj.sub.Cost,
		ctx:       ctx,
		cancel:    cancel,
		seq:       q.nextSeq,
		state:     StatePending,
		submitted: rj.sub.Submitted,
		subs:      make(map[int]chan Event),
	}
	q.nextSeq++
	q.jobs[j.id] = j
	q.cost += j.cost
	return j
}
