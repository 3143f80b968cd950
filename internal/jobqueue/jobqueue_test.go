package jobqueue

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	morestress "repro"
)

// stubSolve returns a SolveFunc that never touches the real engine: it
// records each invocation through record (keyed by the scenario's DeltaT,
// which tests make unique) and fakes a result after an optional delay.
func stubSolve(delay time.Duration, record func(deltaT float64)) SolveFunc {
	return func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		if record != nil {
			record(sc.DeltaT)
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
			}
		}
		return &morestress.JobResult{Result: &morestress.ArrayResult{}}, nil
	}
}

// scenario fabricates a cheap scenario with an identifying ΔT.
func scenario(deltaT float64) morestress.Job {
	return morestress.Job{Rows: 1, Cols: 1, DeltaT: deltaT}
}

func newTestQueue(t *testing.T, opt Options) *Queue {
	t.Helper()
	q, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	return q
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, q *Queue, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s vanished while waiting for %s", id, want)
		}
		if s.State == want {
			return s
		}
		if s.State.Terminal() {
			t.Fatalf("job %s reached terminal %s while waiting for %s", id, s.State, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Snapshot{}
}

func TestSubmitRunsToDone(t *testing.T) {
	q := newTestQueue(t, Options{Solve: stubSolve(0, nil)})
	id, err := q.Submit([]morestress.Job{scenario(1), scenario(2), scenario(3)}, "meta-value", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := waitState(t, q, id, StateDone)
	if s.Completed != 3 || s.Failed != 0 || s.Total != 3 {
		t.Errorf("snapshot counts = %d/%d failed %d, want 3/3 failed 0", s.Completed, s.Total, s.Failed)
	}
	if len(s.Results) != 3 {
		t.Errorf("results = %d, want 3", len(s.Results))
	}
	if s.Meta != "meta-value" {
		t.Errorf("meta = %v, want meta-value", s.Meta)
	}
	if s.Submitted.IsZero() || s.Started.IsZero() || s.Finished.IsZero() {
		t.Errorf("missing lifecycle timestamps: %+v", s)
	}
	if s.Wait < 0 || s.Run < 0 {
		t.Errorf("negative durations: wait %v run %v", s.Wait, s.Run)
	}
	st := q.Stats()
	if st.Done != 1 || st.ScenariosSolved != 3 {
		t.Errorf("stats = %+v, want 1 done / 3 scenarios", st)
	}
}

func TestScenarioErrorFailsJob(t *testing.T) {
	boom := errors.New("solver exploded")
	solve := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		if sc.DeltaT == 2 {
			return nil, boom
		}
		return &morestress.JobResult{}, nil
	}
	q := newTestQueue(t, Options{Solve: solve})
	id, err := q.Submit([]morestress.Job{scenario(1), scenario(2), scenario(3)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := waitState(t, q, id, StateFailed)
	if s.Completed != 3 || s.Failed != 1 {
		t.Errorf("completed/failed = %d/%d, want 3/1", s.Completed, s.Failed)
	}
	if s.Err == "" {
		t.Error("failed job carries no error")
	}
	if s.Results[1].Err == "" {
		t.Error("failing scenario's result has no error")
	}
	if st := q.Stats(); st.Failed != 1 || st.Done != 0 {
		t.Errorf("stats = %+v, want 1 failed", st)
	}
}

// TestStatsCountJobOnceTerminal: a job's terminal counter is bumped before
// its terminal state is published, so Stats read the moment a waiter sees
// the state — the subscription closing, then waitState — already counts the
// job, for jobs that finish done, failed and cancelled mid-run.
func TestStatsCountJobOnceTerminal(t *testing.T) {
	boom := errors.New("solver exploded")
	solve := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		switch {
		case sc.DeltaT < 0:
			return nil, boom
		case sc.DeltaT == 0:
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &morestress.JobResult{}, nil
	}
	q := newTestQueue(t, Options{Solve: solve})
	var want Stats
	for i := 0; i < 240; i++ {
		dt, state := float64(i+1), StateDone
		switch i % 3 {
		case 1:
			dt, state = -dt, StateFailed
		case 2:
			dt, state = 0, StateCancelled
		}
		id, err := q.Submit([]morestress.Job{scenario(dt)}, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		events, _, _ := q.Subscribe(id)
		if state == StateCancelled {
			waitState(t, q, id, StateRunning)
			if err := q.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		for range events {
		}
		got := q.Stats()
		waitState(t, q, id, state)
		switch state {
		case StateDone:
			want.Done++
		case StateFailed:
			want.Failed++
		default:
			want.Cancelled++
		}
		if got.Done != want.Done || got.Failed != want.Failed || got.Cancelled != want.Cancelled {
			t.Fatalf("job %d (%s): stats done/failed/cancelled = %d/%d/%d the moment it finished, want %d/%d/%d",
				i, state, got.Done, got.Failed, got.Cancelled, want.Done, want.Failed, want.Cancelled)
		}
		if st := q.Stats(); st.Done != want.Done || st.Failed != want.Failed || st.Cancelled != want.Cancelled {
			t.Fatalf("job %d (%s): stats done/failed/cancelled = %d/%d/%d after waitState, want %d/%d/%d",
				i, state, st.Done, st.Failed, st.Cancelled, want.Done, want.Failed, want.Cancelled)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	q := newTestQueue(t, Options{Solve: stubSolve(0, nil)})
	if _, err := q.Submit(nil, nil, 0, 0); !errors.Is(err, ErrNoScenarios) {
		t.Errorf("empty submit: err = %v, want ErrNoScenarios", err)
	}
	if _, err := New(Options{}); err == nil {
		t.Error("New without Solve succeeded")
	}
}

// TestBackpressure fills the bounded FIFO and checks Submit pushes back with
// ErrQueueFull instead of buffering without bound.
func TestBackpressure(t *testing.T) {
	block := make(chan struct{})
	solve := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &morestress.JobResult{}, nil
	}
	q := newTestQueue(t, Options{Depth: 2, Workers: 1, Solve: solve})
	defer close(block)

	// First job occupies the worker; two more fill the FIFO.
	first, err := q.Submit([]morestress.Job{scenario(0)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, first, StateRunning)
	for i := 0; i < 2; i++ {
		if _, err := q.Submit([]morestress.Job{scenario(float64(i + 1))}, nil, 0, 0); err != nil {
			t.Fatalf("fill submit %d: %v", i, err)
		}
	}
	if _, err := q.Submit([]morestress.Job{scenario(9)}, nil, 0, 0); !errors.Is(err, ErrQueueFull) {
		t.Errorf("over-capacity submit: err = %v, want ErrQueueFull", err)
	}
	if st := q.Stats(); st.Depth != 2 || st.Capacity != 2 {
		t.Errorf("stats depth/capacity = %d/%d, want 2/2", st.Depth, st.Capacity)
	}
}

func TestCancelPendingNeverRuns(t *testing.T) {
	block := make(chan struct{})
	var ran sync.Map
	solve := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		ran.Store(sc.DeltaT, true)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &morestress.JobResult{}, nil
	}
	q := newTestQueue(t, Options{Workers: 1, Solve: solve})

	first, err := q.Submit([]morestress.Job{scenario(1)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, first, StateRunning)
	second, err := q.Submit([]morestress.Job{scenario(2)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Cancel(second); err != nil {
		t.Fatal(err)
	}
	s, ok := q.Get(second)
	if !ok || s.State != StateCancelled {
		t.Fatalf("cancelled pending job state = %v (ok=%v), want cancelled", s.State, ok)
	}
	// Cancelling again is ErrFinished; unknown IDs are ErrNotFound.
	if err := q.Cancel(second); !errors.Is(err, ErrFinished) {
		t.Errorf("double cancel: err = %v, want ErrFinished", err)
	}
	if err := q.Cancel("deadbeefdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown cancel: err = %v, want ErrNotFound", err)
	}
	// Unblock the runner and drain; the cancelled job must never have run.
	close(block)
	waitState(t, q, first, StateDone)
	if _, did := ran.Load(2.0); did {
		t.Error("cancelled pending job ran anyway")
	}
	if st := q.Stats(); st.Cancelled != 1 {
		t.Errorf("stats cancelled = %d, want 1", st.Cancelled)
	}
}

// TestCancelRunningStopsAtBoundary cancels a running multi-scenario job and
// checks it stops at the next scenario boundary, keeping solved results.
func TestCancelRunningStopsAtBoundary(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	solve := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &morestress.JobResult{}, nil
	}
	q := newTestQueue(t, Options{Solve: solve})
	id, err := q.Submit([]morestress.Job{scenario(1), scenario(2), scenario(3)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := q.Cancel(id); err != nil {
		t.Fatal(err)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, ok := q.Get(id)
		if !ok {
			t.Fatal("job vanished")
		}
		if s.State.Terminal() {
			if s.State != StateCancelled {
				t.Fatalf("state = %s, want cancelled", s.State)
			}
			if s.Completed >= s.Total {
				t.Errorf("cancelled job completed all %d scenarios", s.Total)
			}
			if len(s.Results) != s.Completed {
				t.Errorf("results = %d, completed = %d", len(s.Results), s.Completed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubscribeReplaysAndStreams(t *testing.T) {
	gate := make(chan struct{})
	solve := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		<-gate
		return &morestress.JobResult{}, nil
	}
	q := newTestQueue(t, Options{Solve: solve})
	id, err := q.Submit([]morestress.Job{scenario(1), scenario(2)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	events, stop, ok := q.Subscribe(id)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer stop()
	gate <- struct{}{}
	gate <- struct{}{}

	var got []Event
	for ev := range events {
		got = append(got, ev)
	}
	// pending, running, scenario 0, scenario 1, done.
	if len(got) != 5 {
		t.Fatalf("got %d events %+v, want 5", len(got), got)
	}
	wantStates := []State{StatePending, StateRunning, StateRunning, StateRunning, StateDone}
	wantTypes := []string{EventState, EventState, EventScenario, EventScenario, EventState}
	for i, ev := range got {
		if ev.Type != wantTypes[i] || ev.State != wantStates[i] {
			t.Errorf("event %d = {%s %s}, want {%s %s}", i, ev.Type, ev.State, wantTypes[i], wantStates[i])
		}
		if ev.JobID != id || ev.Total != 2 {
			t.Errorf("event %d misattributed: %+v", i, ev)
		}
	}
	if got[3].Completed != 2 {
		t.Errorf("second scenario event reports %d completed, want 2", got[3].Completed)
	}

	// A late subscriber gets the full history and an already-closed channel.
	late, stopLate, ok := q.Subscribe(id)
	if !ok {
		t.Fatal("late subscribe failed")
	}
	defer stopLate()
	var replay []Event
	for ev := range late {
		replay = append(replay, ev)
	}
	if len(replay) != 5 {
		t.Errorf("late subscriber replayed %d events, want 5", len(replay))
	}

	if _, _, ok := q.Subscribe("deadbeefdeadbeef"); ok {
		t.Error("subscribe to unknown job succeeded")
	}
}

// TestGCRespectsTTL drives the sweep with a fake clock: a finished, never
// read job must survive sweeps strictly within TTL and be dropped after.
func TestGCRespectsTTL(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	now := base
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	const ttl = time.Minute
	// A long GCInterval keeps the background loop out of the way; the test
	// drives gcSweep directly.
	q := newTestQueue(t, Options{Solve: stubSolve(0, nil), TTL: ttl, GCInterval: time.Hour, now: clock})
	id, err := q.Submit([]morestress.Job{scenario(1)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for completion without Get: the job must stay "unread".
	deadline := time.Now().Add(10 * time.Second)
	for q.Stats().Done == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}

	advance(ttl - time.Second)
	q.gcSweep(clock())
	if _, ok := q.Get(id); !ok {
		t.Fatal("GC dropped an unread finished result before its TTL")
	}
	advance(2 * time.Second) // now past TTL
	q.gcSweep(clock())
	if _, ok := q.Get(id); ok {
		t.Error("expired job survived GC")
	}
	if st := q.Stats(); st.Expired != 1 || st.Retained != 0 {
		t.Errorf("stats = %+v, want 1 expired / 0 retained", st)
	}
	// An expired ID reads as not found everywhere.
	if err := q.Cancel(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel after GC: err = %v, want ErrNotFound", err)
	}
}

// TestGCSkipsUnfinished checks the sweep never touches pending or running
// jobs no matter how old they are.
func TestGCSkipsUnfinished(t *testing.T) {
	block := make(chan struct{})
	solve := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &morestress.JobResult{}, nil
	}
	q := newTestQueue(t, Options{Workers: 1, TTL: time.Millisecond, GCInterval: time.Hour, Solve: solve})
	defer close(block)
	running, err := q.Submit([]morestress.Job{scenario(1)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, running, StateRunning)
	pending, err := q.Submit([]morestress.Job{scenario(2)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.gcSweep(time.Now().Add(time.Hour))
	if _, ok := q.Get(running); !ok {
		t.Error("GC dropped a running job")
	}
	if _, ok := q.Get(pending); !ok {
		t.Error("GC dropped a pending job")
	}
}

func TestCloseRejectsSubmitAndStopsWork(t *testing.T) {
	q, err := New(Options{Solve: stubSolve(time.Hour, nil)})
	if err != nil {
		t.Fatal(err)
	}
	id, err := q.Submit([]morestress.Job{scenario(1)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, id, StateRunning)
	done := make(chan struct{})
	go func() {
		q.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return (running job not cancelled)")
	}
	if _, err := q.Submit([]morestress.Job{scenario(2)}, nil, 0, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
	q.Close() // idempotent
}

// TestQueueRaceStress is the concurrency satellite: N producers submit while
// M pollers read snapshots, subscribe, and query stats, and a canceller
// deletes a random slice of jobs — run under -race in CI. It asserts the two
// queue invariants: no job is lost (every submitted job reaches a terminal
// state) and no scenario is double-run (each unique scenario solves at most
// once, exactly once for jobs that finish done).
func TestQueueRaceStress(t *testing.T) {
	const (
		producers       = 4
		jobsPerProducer = 25
		scenariosPerJob = 3
		pollers         = 4
		workers         = 4
	)
	var idsMu sync.Mutex
	var runs sync.Map // scenario ΔT -> *atomic.Int64 invocation count
	record := func(dt float64) {
		v, _ := runs.LoadOrStore(dt, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}
	q := newTestQueue(t, Options{
		Depth:   producers*jobsPerProducer + 1,
		Workers: workers,
		TTL:     time.Hour, // nothing may expire during the stress run
		Solve:   stubSolve(100*time.Microsecond, record),
	})

	ids := make([][]string, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for n := 0; n < jobsPerProducer; n++ {
				scs := make([]morestress.Job, scenariosPerJob)
				for s := range scs {
					// Unique ΔT per (producer, job, scenario).
					scs[s] = scenario(float64(p*1_000_000 + n*1_000 + s))
				}
				id, err := q.Submit(scs, p, 0, 0)
				if err != nil {
					t.Errorf("producer %d submit %d: %v", p, n, err)
					return
				}
				idsMu.Lock()
				ids[p] = append(ids[p], id)
				idsMu.Unlock()
			}
		}(p)
	}

	stopPolling := make(chan struct{})
	var pollWG sync.WaitGroup
	for m := 0; m < pollers; m++ {
		pollWG.Add(1)
		go func(m int) {
			defer pollWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopPolling:
					return
				default:
				}
				q.Stats()
				idsMu.Lock()
				var id string
				if own := ids[m%producers]; len(own) > 0 {
					id = own[i%len(own)]
				}
				idsMu.Unlock()
				if id == "" {
					continue
				}
				if s, ok := q.Get(id); ok && s.Completed > s.Total {
					t.Errorf("job %s over-completed: %d/%d", id, s.Completed, s.Total)
				}
				if ev, stop, ok := q.Subscribe(id); ok {
					// Drain whatever is buffered without blocking the queue.
					stop()
					for range ev {
					}
				}
			}
		}(m)
	}

	// The canceller: aggressively cancel a fixed subset as it appears.
	wg.Add(1)
	cancelled := make(map[string]bool)
	go func() {
		defer wg.Done()
		for round := 0; round < 200; round++ {
			idsMu.Lock()
			for p := range ids {
				if len(ids[p]) > 0 && round%4 == p {
					id := ids[p][round%len(ids[p])]
					if q.Cancel(id) == nil {
						cancelled[id] = true
					}
				}
			}
			idsMu.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()

	// Drain: every submitted job must land in a terminal state (none lost).
	deadline := time.Now().Add(30 * time.Second)
	for _, own := range ids {
		for _, id := range own {
			for {
				s, ok := q.Get(id)
				if !ok {
					t.Fatalf("job %s lost (TTL is an hour; GC must not have dropped it)", id)
				}
				if s.State.Terminal() {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job %s stuck in %s", id, s.State)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	close(stopPolling)
	pollWG.Wait()

	// No double runs, and done jobs ran every scenario exactly once.
	for p, own := range ids {
		for n, id := range own {
			s, _ := q.Get(id)
			for sc := 0; sc < scenariosPerJob; sc++ {
				dt := float64(p*1_000_000 + n*1_000 + sc)
				var count int64
				if v, ok := runs.Load(dt); ok {
					count = v.(*atomic.Int64).Load()
				}
				if count > 1 {
					t.Errorf("scenario %v ran %d times (double-run)", dt, count)
				}
				if s.State == StateDone && count != 1 {
					t.Errorf("done job %s scenario %d ran %d times, want 1", id, sc, count)
				}
			}
			if s.State == StateCancelled && !cancelled[id] {
				t.Errorf("job %s cancelled but never Cancel()ed", id)
			}
		}
	}
	st := q.Stats()
	total := st.Done + st.Failed + st.Cancelled
	if st.Submitted != producers*jobsPerProducer || total != st.Submitted {
		t.Errorf("stats: submitted %d, terminal %d (+%d done/%d failed/%d cancelled)",
			st.Submitted, total, st.Done, st.Failed, st.Cancelled)
	}
}

// TestCancelFreesQueueCapacity is the regression test for cancelled-but-
// queued jobs wedging the bounded FIFO: after a queued job is cancelled its
// slot must be reusable immediately, not when a worker drains the carcass.
func TestCancelFreesQueueCapacity(t *testing.T) {
	block := make(chan struct{})
	solve := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &morestress.JobResult{}, nil
	}
	q := newTestQueue(t, Options{Depth: 1, Workers: 1, Solve: solve})
	defer close(block)

	first, err := q.Submit([]morestress.Job{scenario(1)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, first, StateRunning)
	queued, err := q.Submit([]morestress.Job{scenario(2)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit([]morestress.Job{scenario(3)}, nil, 0, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue not full before cancel: %v", err)
	}
	if err := q.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Depth != 0 {
		t.Errorf("depth = %d after cancelling the only queued job, want 0", st.Depth)
	}
	replacement, err := q.Submit([]morestress.Job{scenario(4)}, nil, 0, 0)
	if err != nil {
		t.Fatalf("submit after cancel still rejected: %v", err)
	}
	if s, ok := q.Get(replacement); !ok || s.State != StatePending {
		t.Errorf("replacement job state = %v (ok=%v), want pending", s.State, ok)
	}
}

// TestCloseCancelsQueuedJobs is the regression test for Close leaving
// queued jobs pending forever: they must land in cancelled so pollers see a
// terminal state and subscribers' channels close.
func TestCloseCancelsQueuedJobs(t *testing.T) {
	block := make(chan struct{})
	solve := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &morestress.JobResult{}, nil
	}
	q, err := New(Options{Workers: 1, Solve: solve})
	if err != nil {
		t.Fatal(err)
	}
	defer close(block)
	running, err := q.Submit([]morestress.Job{scenario(1)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, running, StateRunning)
	queued, err := q.Submit([]morestress.Job{scenario(2)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	events, stop, ok := q.Subscribe(queued)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer stop()

	done := make(chan struct{})
	go func() {
		q.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung")
	}
	s, ok := q.Get(queued)
	if !ok || s.State != StateCancelled {
		t.Fatalf("queued job after Close: state %v (ok=%v), want cancelled", s.State, ok)
	}
	if s.Wait <= 0 {
		t.Errorf("cancelled-while-queued job reports wait %v, want > 0", s.Wait)
	}
	// The subscription must terminate (last event cancelled, then close).
	deadline := time.After(10 * time.Second)
	var last Event
	for {
		select {
		case ev, open := <-events:
			if !open {
				if last.State != StateCancelled {
					t.Errorf("final event state %s, want cancelled", last.State)
				}
				return
			}
			last = ev
		case <-deadline:
			t.Fatal("subscriber channel never closed after Close")
		}
	}
}

// TestPendingEventAlwaysFirst is the regression test for the submit/worker
// race on the event history: no matter how fast the worker claims the job,
// the replayed history must begin with the pending state event.
func TestPendingEventAlwaysFirst(t *testing.T) {
	q := newTestQueue(t, Options{Workers: 4, Solve: stubSolve(0, nil)})
	for i := 0; i < 50; i++ {
		id, err := q.Submit([]morestress.Job{scenario(float64(i))}, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		events, stop, ok := q.Subscribe(id)
		if !ok {
			t.Fatal("subscribe failed")
		}
		first := <-events
		stop()
		for range events {
		}
		if first.Type != EventState || first.State != StatePending {
			t.Fatalf("submission %d: first event = {%s %s}, want {state pending}", i, first.Type, first.State)
		}
	}
}

// TestCancelDuringFinalScenario is the regression test for cancellation
// landing in "failed": a context-aware SolveFunc interrupted on the last
// (here: only) scenario must yield a cancelled job with no phantom failed
// scenario recorded.
func TestCancelDuringFinalScenario(t *testing.T) {
	started := make(chan struct{})
	solve := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	q := newTestQueue(t, Options{Solve: solve})
	id, err := q.Submit([]morestress.Job{scenario(1)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := q.Cancel(id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, ok := q.Get(id)
		if !ok {
			t.Fatal("job vanished")
		}
		if s.State.Terminal() {
			if s.State != StateCancelled {
				t.Fatalf("state = %s, want cancelled (not failed)", s.State)
			}
			if s.Completed != 0 || s.Failed != 0 || len(s.Results) != 0 {
				t.Errorf("interrupted scenario recorded: %d completed / %d failed / %d results",
					s.Completed, s.Failed, len(s.Results))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	st := q.Stats()
	if st.Cancelled != 1 || st.Failed != 0 || st.ScenariosSolved != 0 {
		t.Errorf("stats = %+v, want 1 cancelled / 0 failed / 0 scenarios solved", st)
	}
}

// TestResultIndexStamped checks Snapshot.Results carry their scenario index
// even when the SolveFunc (like Engine.Solve) always reports index 0.
func TestResultIndexStamped(t *testing.T) {
	q := newTestQueue(t, Options{Solve: stubSolve(0, nil)})
	id, err := q.Submit([]morestress.Job{scenario(1), scenario(2), scenario(3)}, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := waitState(t, q, id, StateDone)
	for i, res := range s.Results {
		if res.Index != i {
			t.Errorf("result %d has Index %d", i, res.Index)
		}
	}
}

// TestResultBudget checks the retained-cost budget: submissions beyond
// MaxCost bounce with ErrOverloaded until garbage collection releases the
// cost of expired jobs.
func TestResultBudget(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	now := base
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	const ttl = time.Minute
	q := newTestQueue(t, Options{Solve: stubSolve(0, nil), TTL: ttl, GCInterval: time.Hour, MaxCost: 100, now: clock})

	heavy, err := q.Submit([]morestress.Job{scenario(1)}, nil, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, heavy, StateDone)
	// The finished job still holds its cost: 60 + 50 > 100.
	if _, err := q.Submit([]morestress.Job{scenario(2)}, nil, 50, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget submit: err = %v, want ErrOverloaded", err)
	}
	if st := q.Stats(); st.RetainedCost != 60 || st.MaxCost != 100 {
		t.Errorf("stats cost = %d/%d, want 60/100", st.RetainedCost, st.MaxCost)
	}
	// 40 still fits alongside the retained 60.
	small, err := q.Submit([]morestress.Job{scenario(3)}, nil, 40, 0)
	if err != nil {
		t.Fatalf("in-budget submit rejected: %v", err)
	}
	waitState(t, q, small, StateDone)

	// Expire both; the budget frees up.
	mu.Lock()
	now = now.Add(ttl + time.Second)
	mu.Unlock()
	q.gcSweep(clock())
	if st := q.Stats(); st.RetainedCost != 0 {
		t.Errorf("retained cost = %d after GC, want 0", st.RetainedCost)
	}
	if _, err := q.Submit([]morestress.Job{scenario(4)}, nil, 100, 0); err != nil {
		t.Errorf("submit after GC rejected: %v", err)
	}
}

// TestRunningCostReleasedAtFinish: the running part of a job's cost holds
// the budget only until the job reaches a terminal state — done or
// cancelled while queued — while the retained part stays until expiry.
func TestRunningCostReleasedAtFinish(t *testing.T) {
	gate := make(chan struct{})
	q := newTestQueue(t, Options{
		Depth: 4, TTL: time.Hour, GCInterval: time.Hour, MaxCost: 100,
		Solve: func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
			<-gate
			return &morestress.JobResult{Result: &morestress.ArrayResult{}}, nil
		},
	})
	first, err := q.Submit([]morestress.Job{scenario(1)}, nil, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := q.Submit([]morestress.Job{scenario(2)}, nil, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	// 10+30 + 5+40 + 20 > 100 while both run or wait.
	if _, err := q.Submit([]morestress.Job{scenario(3)}, nil, 0, 20); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget submit: err = %v, want ErrOverloaded", err)
	}
	if err := q.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	waitState(t, q, first, StateDone)
	if st := q.Stats(); st.RetainedCost != 15 {
		t.Errorf("retained cost = %d after both jobs finished, want the kept 10+5", st.RetainedCost)
	}
}
