package jobqueue

import (
	"context"
	"encoding/gob"
	"sync"
	"testing"
	"time"

	morestress "repro"
	"repro/internal/wal"
)

func init() {
	// Journal tests use string metas; meta is journaled as a gob interface
	// value, so the concrete type must be registered.
	gob.Register("")
}

// openJournal opens a WAL in dir and registers its Close to run after the
// queues using it have shut down (t.Cleanup is LIFO).
func openJournal(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// waitAppends polls until the journal has absorbed at least n appends, so a
// test can reopen the directory without racing an in-flight frame.
func waitAppends(t *testing.T, l *wal.Log, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if l.Stats().Appends >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("journal never reached %d appends (have %d)", n, l.Stats().Appends)
}

// solveVM fakes a solve whose result carries a recognizable field, so
// recovery tests can check the payload round-trips through the journal.
func solveVM(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
	return &morestress.JobResult{Result: &morestress.ArrayResult{
		VM:         &morestress.Field{NX: 2, NY: 1, V: []float64{sc.DeltaT, -sc.DeltaT}},
		GlobalDoFs: 7,
	}}, nil
}

func TestRecoverRestoresFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	log1 := openJournal(t, dir)
	q1 := newTestQueue(t, Options{Journal: log1, Solve: solveVM})
	id, err := q1.Submit([]morestress.Job{scenario(3), scenario(5)}, "remember-me", 11)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q1, id, StateDone)
	// S + T(running) + 2×C + T(done) = 5 records before the "crash".
	waitAppends(t, log1, 5)

	log2 := openJournal(t, dir)
	q2 := newTestQueue(t, Options{Journal: log2, Solve: solveVM})
	st, err := q2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.Requeued != 0 || st.Expired != 0 {
		t.Fatalf("recover stats = %+v, want 1 restored", st)
	}
	if got := q2.Recovered(); got != st {
		t.Errorf("Recovered() = %+v, want %+v", got, st)
	}
	s, ok := q2.Get(id)
	if !ok {
		t.Fatalf("restored job %s not found", id)
	}
	if s.State != StateDone || s.Completed != 2 || s.Failed != 0 {
		t.Fatalf("restored snapshot = %s %d/%d failed %d", s.State, s.Completed, s.Total, s.Failed)
	}
	if s.Meta != "remember-me" {
		t.Errorf("restored meta = %v", s.Meta)
	}
	for i, want := range []float64{3, 5} {
		r := s.Results[i]
		if r == nil || r.Result == nil || r.Result.VM == nil {
			t.Fatalf("result %d missing payload: %+v", i, r)
		}
		if r.Index != i || r.Result.VM.V[0] != want || r.Result.GlobalDoFs != 7 {
			t.Errorf("result %d = index %d VM %v DoFs %d", i, r.Index, r.Result.VM.V, r.Result.GlobalDoFs)
		}
	}
	// Subscribers to a restored finished job get a coherent replayed
	// history ending in the terminal state, then the channel closes.
	events, _, ok := q2.Subscribe(id)
	if !ok {
		t.Fatal("subscribe to restored job failed")
	}
	var last Event
	n := 0
	for ev := range events {
		last = ev
		n++
	}
	if n == 0 || last.Type != EventState || last.State != StateDone || last.Completed != 2 {
		t.Errorf("restored history: %d events, last %+v", n, last)
	}
	// The restored job keeps drawing from the cost budget until GC.
	if got := q2.Stats(); got.RetainedCost != 11 {
		t.Errorf("restored cost = %d, want 11", got.RetainedCost)
	}
}

func TestRecoverRequeuesPendingAndRerunsRunning(t *testing.T) {
	dir := t.TempDir()
	log1 := openJournal(t, dir)
	// Scenario ΔT=2 blocks until cancelled, pinning job 1 in running with
	// one completed scenario; jobs 2 and 3 stay pending behind it.
	blocking := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		if sc.DeltaT == 2 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return solveVM(ctx, sc)
	}
	q1 := newTestQueue(t, Options{Workers: 1, Journal: log1, Solve: blocking})
	id1, err := q1.Submit([]morestress.Job{scenario(1), scenario(2)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := q1.Submit([]morestress.Job{scenario(3)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	id3, err := q1.Submit([]morestress.Job{scenario(4)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 3×S + T(running) + C(ΔT=1) = 5 records, then the worker is wedged.
	waitAppends(t, log1, 5)

	// "Crash": abandon q1 (no Close — Close would journal cancellations)
	// and recover from the directory as a fresh process would.
	log2 := openJournal(t, dir)
	var mu sync.Mutex
	var order []float64
	record := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		mu.Lock()
		order = append(order, sc.DeltaT)
		mu.Unlock()
		return solveVM(ctx, sc)
	}
	q2 := newTestQueue(t, Options{Workers: 1, Journal: log2, Solve: record})
	st, err := q2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requeued != 3 || st.Restored != 0 {
		t.Fatalf("recover stats = %+v, want 3 requeued", st)
	}
	// Every accepted job reaches done under its original ID, and the
	// running job re-ran from scenario zero.
	for _, id := range []string{id1, id2, id3} {
		waitState(t, q2, id, StateDone)
	}
	s, _ := q2.Get(id1)
	if s.Completed != 2 || len(s.Results) != 2 {
		t.Fatalf("re-run job completed %d scenarios, want 2", s.Completed)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []float64{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("solve order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("solve order %v, want %v (original FIFO order)", order, want)
		}
	}
}

func TestCleanShutdownPersistsCancellations(t *testing.T) {
	dir := t.TempDir()
	log1 := openJournal(t, dir)
	blocking := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	q1, err := New(Options{Workers: 1, Journal: log1, Solve: blocking})
	if err != nil {
		t.Fatal(err)
	}
	id1, err := q1.Submit([]morestress.Job{scenario(1)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q1, id1, StateRunning)
	id2, err := q1.Submit([]morestress.Job{scenario(2)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	q1.Close() // journals cancellation of both the pending and the running job

	log2 := openJournal(t, dir)
	q2 := newTestQueue(t, Options{Journal: log2, Solve: solveVM})
	st, err := q2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 2 || st.Requeued != 0 {
		t.Fatalf("recover stats after clean shutdown = %+v, want 2 restored", st)
	}
	for _, id := range []string{id1, id2} {
		s, ok := q2.Get(id)
		if !ok || s.State != StateCancelled {
			t.Errorf("job %s after clean shutdown: %v %v, want cancelled", id, s.State, ok)
		}
	}
}

func TestRecoverDropsExpiredJobs(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	log1 := openJournal(t, dir)
	q1 := newTestQueue(t, Options{Journal: log1, TTL: time.Minute, Solve: solveVM, now: func() time.Time { return t0 }})
	id, err := q1.Submit([]morestress.Job{scenario(1)}, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q1, id, StateDone)
	waitAppends(t, log1, 4)

	log2 := openJournal(t, dir)
	later := t0.Add(2 * time.Minute)
	q2 := newTestQueue(t, Options{Journal: log2, TTL: time.Minute, Solve: solveVM, now: func() time.Time { return later }})
	st, err := q2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Expired != 1 || st.Restored != 0 || st.Requeued != 0 {
		t.Fatalf("recover stats = %+v, want 1 expired", st)
	}
	if _, ok := q2.Get(id); ok {
		t.Error("expired job still retrievable after recovery")
	}
	if got := q2.Stats(); got.RetainedCost != 0 {
		t.Errorf("expired job still holds cost %d", got.RetainedCost)
	}
}

func TestJournalCompactionKeepsLogBounded(t *testing.T) {
	dir := t.TempDir()
	log1 := openJournal(t, dir)
	// CompactBytes 1: every journaled append triggers a compaction, the
	// most hostile schedule for snapshot/append interleaving.
	q1 := newTestQueue(t, Options{Journal: log1, CompactBytes: 1, Solve: solveVM})
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := q1.Submit([]morestress.Job{scenario(float64(i + 1))}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		waitState(t, q1, id, StateDone)
	}
	if st := log1.Stats(); st.Compactions == 0 || st.LastCompaction.IsZero() {
		t.Fatalf("no compactions recorded: %+v", st)
	}
	// Every job journals S, T(running), C, T(done): wait for all 20 direct
	// appends (compaction emits are not Append calls) before reopening.
	waitAppends(t, log1, 20)

	log2 := openJournal(t, dir)
	q2 := newTestQueue(t, Options{Journal: log2, Solve: solveVM})
	st, err := q2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 5 {
		t.Fatalf("recover stats after heavy compaction = %+v, want 5 restored", st)
	}
	for i, id := range ids {
		s, ok := q2.Get(id)
		if !ok || s.State != StateDone || len(s.Results) != 1 {
			t.Fatalf("job %s after compaction: ok=%v %+v", id, ok, s)
		}
		if vm := s.Results[0].Result.VM; vm.V[0] != float64(i+1) {
			t.Errorf("job %s result VM %v, want leading %d", id, vm.V, i+1)
		}
	}
}

func TestSubmitRejectsUnjournalableScenarios(t *testing.T) {
	dir := t.TempDir()
	log1 := openJournal(t, dir)
	q := newTestQueue(t, Options{Journal: log1, Solve: solveVM})
	sc := scenario(1)
	sc.DeltaTMap = func(row, col int) float64 { return 1 }
	if _, err := q.Submit([]morestress.Job{sc}, nil, 0); err != ErrNotJournalable {
		t.Errorf("Submit with DeltaTMap under a journal: %v, want ErrNotJournalable", err)
	}
	// Without a journal the same job is accepted.
	q2 := newTestQueue(t, Options{Solve: solveVM})
	if _, err := q2.Submit([]morestress.Job{sc}, nil, 0); err != nil {
		t.Errorf("Submit with DeltaTMap without a journal: %v", err)
	}
}

// TestJobWireRoundTripsSolverOptions pins the journal's wire projection:
// every serializable solver option a recovered job needs to re-run
// identically — including the factor ordering and storage precision —
// survives the jobWire round trip. A field silently dropped here means a
// crash-recovered job re-runs under different solver settings.
func TestJobWireRoundTripsSolverOptions(t *testing.T) {
	in := scenario(7)
	in.Rows, in.Cols, in.GridSamples = 3, 4, 9
	in.Solver = morestress.SolveCG
	in.Options = morestress.SolverOptions{
		Tol: 1e-9, MaxIter: 123, Restart: 17, Workers: 2,
		Precond:   morestress.PrecondIC0,
		Ordering:  morestress.OrderingMulticolor,
		Precision: morestress.PrecisionFloat32,
	}
	out := toJobWire(in).job()
	if out.Options != in.Options {
		t.Errorf("solver options did not round-trip: got %+v, want %+v", out.Options, in.Options)
	}
	if out.Rows != in.Rows || out.Cols != in.Cols || out.DeltaT != in.DeltaT ||
		out.GridSamples != in.GridSamples || out.Solver != in.Solver {
		t.Errorf("job fields did not round-trip: got %+v, want %+v", out, in)
	}
}

// TestRecoverMapsRetiredOrdering: journals written before the RCM ordering
// was deleted carry its value 2. Replay must re-run those scenarios under the
// natural ordering, while multicolor (3) keeps its value and meaning.
func TestRecoverMapsRetiredOrdering(t *testing.T) {
	dir := t.TempDir()
	log1 := openJournal(t, dir)
	rcm, mc := toJobWire(scenario(1)), toJobWire(scenario(2))
	rcm.Ordering, mc.Ordering = 2, 3
	rec, err := encodeRecord(recSubmit, submitRec{
		ID: "old-job", Submitted: time.Now(), Scenarios: []jobWire{rcm, mc},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := log1.Append(rec); err != nil {
		t.Fatal(err)
	}
	log1.Close()

	log2 := openJournal(t, dir)
	var mu sync.Mutex
	got := make(map[float64]morestress.Ordering)
	record := func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
		mu.Lock()
		got[sc.DeltaT] = sc.Options.Ordering
		mu.Unlock()
		return solveVM(ctx, sc)
	}
	q := newTestQueue(t, Options{Workers: 1, Journal: log2, Solve: record})
	if st, err := q.Recover(); err != nil || st.Requeued != 1 {
		t.Fatalf("recover = %+v, %v; want 1 requeued", st, err)
	}
	waitState(t, q, "old-job", StateDone)
	mu.Lock()
	defer mu.Unlock()
	if got[1] != morestress.OrderingNatural {
		t.Errorf("journaled ordering 2 replayed as %v, want natural", got[1])
	}
	if got[2] != morestress.OrderingMulticolor {
		t.Errorf("journaled ordering 3 replayed as %v, want multicolor", got[2])
	}
}

func TestSubmitRegeneratesCollidingID(t *testing.T) {
	ids := []string{"aaaa", "aaaa", "bbbb"}
	calls := 0
	q := newTestQueue(t, Options{
		Workers: 1,
		Solve: func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
		newID: func() (string, error) {
			id := ids[calls]
			if calls < len(ids)-1 {
				calls++
			}
			return id, nil
		},
	})
	id1, err := q.Submit([]morestress.Job{scenario(1)}, "first", 3)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != "aaaa" {
		t.Fatalf("first id = %q", id1)
	}
	id2, err := q.Submit([]morestress.Job{scenario(2)}, "second", 4)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "bbbb" {
		t.Fatalf("colliding submit got id %q, want regenerated %q", id2, "bbbb")
	}
	if calls < 2 {
		t.Errorf("id generator called %d times, want ≥2 (collision retry)", calls+1)
	}
	// The first job is untouched and the cost budget counted both jobs.
	s, ok := q.Get(id1)
	if !ok || s.Meta != "first" {
		t.Fatalf("original job clobbered by collision: ok=%v meta=%v", ok, s.Meta)
	}
	if st := q.Stats(); st.RetainedCost != 7 {
		t.Errorf("retained cost = %d, want 7", st.RetainedCost)
	}
}

func BenchmarkSubmitJournaled(b *testing.B) {
	dir := b.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	q, err := New(Options{
		Depth:        b.N + 2,
		Workers:      1,
		CompactBytes: 1 << 40, // never compact inside the timed loop
		Journal:      log,
		Solve: func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	scenarios := []morestress.Job{scenario(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Submit(scenarios, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
