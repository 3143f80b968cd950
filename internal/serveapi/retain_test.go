package serveapi

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	morestress "repro"
	"repro/internal/jobqueue"
	"repro/internal/wal"
)

// queueServer mounts a server over engine and a fresh queue on journal
// (nil for none); both close with the test.
func queueServer(t *testing.T, engine *morestress.Engine, journal *wal.Log) (*jobqueue.Queue, *httptest.Server) {
	t.Helper()
	q, err := NewQueue(engine, 8, 1, time.Minute, DefaultJobFieldBudget, journal)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, q).Routes())
	t.Cleanup(func() {
		ts.Close()
		q.Close()
	})
	return q, ts
}

// finishedJob submits a /jobs body and polls until the job is terminal.
func finishedJob(t *testing.T, base, body string) JobStatusResponse {
	t.Helper()
	var sub SubmitResponse
	if code := postJSON(t, base+"/jobs", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		s, code := getStatus(t, base+sub.Poll)
		if code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if jobqueue.State(s.State).Terminal() {
			if s.State != "done" {
				t.Fatalf("job landed in %s: %s", s.State, s.Error)
			}
			return s
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scenarioEvents returns the job's SSE scenario events.
func scenarioEvents(t *testing.T, base, id string) []jobqueue.Event {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []jobqueue.Event
	for _, ev := range readSSE(t, resp) {
		if ev.Type == jobqueue.EventScenario {
			out = append(out, ev)
		}
	}
	return out
}

// TestRecoveredJobAnswersLikeLive checks a finished job restored from the
// journal by a fresh queue serves the same per-scenario results and
// scenario events as the live job did: the solver report (precond,
// ordering, warmStart, precondCached, precision, precisionFallback), the
// peak stress, and the field where the request asked for it.
func TestRecoveredJobAnswersLikeLive(t *testing.T) {
	dir := t.TempDir()
	engine := morestress.NewEngine(morestress.EngineOptions{Workers: 2})
	journal, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q1, ts1 := queueServer(t, engine, journal)

	const cell = `"resolution":"coarse","nodes":3,"rows":2,"cols":2,"gridSamples":4`
	body := `{"jobs":[` +
		`{` + cell + `,"deltaT":-100,"includeField":true},` +
		`{` + cell + `,"deltaT":-150},` +
		`{` + cell + `,"deltaT":-200,"solver":"cg","precond":"ic0","includeField":true},` +
		`{` + cell + `,"deltaT":-250,"solver":"direct"}]}`
	live := finishedJob(t, ts1.URL, body)
	liveEvents := scenarioEvents(t, ts1.URL, live.ID)

	// The test only means something if the live job reports what recovery
	// used to lose.
	r := live.Results
	if len(r) != 4 {
		t.Fatalf("live job has %d results, want 4", len(r))
	}
	if r[0].Precond == "" || r[0].Ordering == "" || r[0].Precision == "" || r[0].Field == nil {
		t.Errorf("scenario 0 lacks its solver report or field: %+v", r[0])
	}
	if !r[1].WarmStart || !r[1].PrecondCached || r[1].Field != nil {
		t.Errorf("scenario 1 should be warm, cached and fieldless: %+v", r[1])
	}
	if r[2].Precond != "ic0" || r[2].Ordering != "two-ended" || r[2].Precision != "float32" || r[2].Field == nil {
		t.Errorf("scenario 2 lacks its IC0 report or field: %+v", r[2])
	}
	if r[3].Precond != "" || r[3].Iterations != 0 {
		t.Errorf("direct scenario 3 reports an iterative solve: %+v", r[3])
	}
	for i, res := range r {
		if res.MaxVonMises <= 0 {
			t.Errorf("scenario %d maxVonMises = %g", i, res.MaxVonMises)
		}
	}

	// S, T(running), one C per scenario, T(done): wait until all are on
	// disk, then restart the queue over the same journal directory.
	for deadline := time.Now().Add(10 * time.Second); journal.Stats().Appends < int64(len(r)+3); {
		if time.Now().After(deadline) {
			t.Fatalf("journal has %d appends, want %d", journal.Stats().Appends, len(r)+3)
		}
		time.Sleep(time.Millisecond)
	}
	q1.Close()
	journal.Close()
	journal2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal2.Close() })
	q2, ts2 := queueServer(t, engine, journal2)
	if st, err := q2.Recover(); err != nil || st.Restored != 1 {
		t.Fatalf("Recover = %+v, %v; want 1 restored", st, err)
	}
	recovered, code := getStatus(t, ts2.URL+"/jobs/"+live.ID)
	if code != http.StatusOK {
		t.Fatalf("recovered job status %d", code)
	}
	if !reflect.DeepEqual(recovered.Results, live.Results) {
		t.Errorf("recovered results differ from live\n got %+v\nwant %+v", recovered.Results, live.Results)
	}
	if got := scenarioEvents(t, ts2.URL, live.ID); !reflect.DeepEqual(got, liveEvents) {
		t.Errorf("recovered scenario events differ from live\n got %+v\nwant %+v", got, liveEvents)
	}
}

// TestFinishedJobRetainsCompactResults checks what a finished job keeps:
// no solution vectors (jobqueue.Result has nowhere to hold them), the field
// only where includeField was set, and a peak stress equal to what a
// synchronous /solve of the same scenario returns.
func TestFinishedJobRetainsCompactResults(t *testing.T) {
	engine := morestress.NewEngine(morestress.EngineOptions{Workers: 2})
	q, ts := queueServer(t, engine, nil)

	// Direct solves are deterministic, so the peaks compare exactly.
	noField := `{"resolution":"coarse","nodes":3,"rows":1,"cols":2,"deltaT":-100,"gridSamples":4,"solver":"direct"}`
	withField := strings.TrimSuffix(noField, "}") + `,"includeField":true}`
	st := finishedJob(t, ts.URL, `{"jobs":[`+noField+`,`+withField+`]}`)

	snap, ok := q.Get(st.ID)
	if !ok || len(snap.Results) != 2 {
		t.Fatalf("job %s: ok=%v, %d results", st.ID, ok, len(snap.Results))
	}
	if snap.Results[0].VM != nil {
		t.Error("scenario 0 did not set includeField but its field was retained")
	}
	if snap.Results[1].VM == nil {
		t.Error("scenario 1 set includeField but its field was dropped")
	}

	for i, body := range []string{noField, withField} {
		var sync JobResponse
		if code := postJSON(t, ts.URL+"/solve", body, &sync); code != http.StatusOK {
			t.Fatalf("/solve %d status %d", i, code)
		}
		got := st.Results[i]
		if got.MaxVonMises != sync.MaxVonMises || got.MaxVonMises <= 0 {
			t.Errorf("scenario %d: job maxVonMises %g, /solve %g", i, got.MaxVonMises, sync.MaxVonMises)
		}
		if (got.Field == nil) != (sync.Field == nil) || (got.Field != nil && !reflect.DeepEqual(*got.Field, *sync.Field)) {
			t.Errorf("scenario %d: job field %+v, /solve field %+v", i, got.Field, sync.Field)
		}
	}
}
