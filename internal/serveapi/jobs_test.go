package serveapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	morestress "repro"
	"repro/internal/jobqueue"
)

// postJSON posts body and decodes the JSON response into out, returning the
// status code.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func getStatus(t *testing.T, url string) (JobStatusResponse, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobStatusResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// slowServer is testServer with an artificial per-scenario delay in front
// of the real engine solve: job lifecycles stay observable (running is
// pollable, a queued second job is cancellable before it starts) regardless
// of how fast the machine solves the cheap test scenarios.
func slowServer(t *testing.T, delay time.Duration, depth int) *httptest.Server {
	t.Helper()
	engine := morestress.NewEngine(morestress.EngineOptions{Workers: 2})
	queue, err := jobqueue.New(jobqueue.Options{
		Depth: depth, Workers: 1, TTL: time.Minute,
		Solve: func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			res, _ := engine.Solve(sc)
			return res, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(queue.Close)
	ts := httptest.NewServer(New(engine, queue).Routes())
	t.Cleanup(ts.Close)
	return ts
}

// TestJobsEndToEnd is the acceptance exercise: submit a multi-scenario job,
// observe "running" by polling, receive per-scenario SSE events, fetch the
// finished result, and cancel a second queued job before it starts — all
// against a real httptest server (run under -race in CI).
func TestJobsEndToEnd(t *testing.T) {
	ts := slowServer(t, 150*time.Millisecond, 8)

	// Submit a 3-scenario job; the ID comes back immediately.
	batch := `{"jobs":[` + cheapJob + `,` + cheapJob + `,` + cheapJob + `]}`
	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/jobs", batch, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if sub.ID == "" || sub.State != "pending" {
		t.Fatalf("submit response %+v", sub)
	}

	// Attach the SSE stream before the job finishes (history replays, so
	// attaching late would also work — but this exercises live streaming).
	sseResp, err := http.Get(ts.URL + sub.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}

	// While the first scenario builds the ROM, submit a second job and
	// cancel it before the single queue worker reaches it.
	var sub2 SubmitResponse
	if code := postJSON(t, ts.URL+"/jobs", `{"jobs":[`+cheapJob+`]}`, &sub2); code != http.StatusAccepted {
		t.Fatalf("second submit status %d, want 202", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sub2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", delResp.StatusCode)
	}
	if s2, code := getStatus(t, ts.URL+"/jobs/"+sub2.ID); code != http.StatusOK || s2.State != "cancelled" {
		t.Errorf("cancelled job: status %d state %q, want 200 cancelled", code, s2.State)
	}
	if s2, _ := getStatus(t, ts.URL+"/jobs/"+sub2.ID); s2.Completed != 0 || len(s2.Results) != 0 {
		t.Errorf("cancelled-before-start job has results: %+v", s2)
	}

	// Poll until the first job is observed running, then until done.
	deadline := time.Now().Add(2 * time.Minute)
	sawRunning := false
	var final JobStatusResponse
	for {
		s, code := getStatus(t, ts.URL+sub.Poll)
		if code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		switch s.State {
		case "running":
			sawRunning = true
		case "done":
			final = s
		case "failed", "cancelled":
			t.Fatalf("job landed in %s: %+v", s.State, s)
		}
		if final.State != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished (last state %q)", s.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawRunning {
		t.Error("polling never observed the running state")
	}
	if final.Total != 3 || final.Completed != 3 || final.Failed != 0 {
		t.Errorf("final counts %d/%d failed %d, want 3/3 failed 0", final.Completed, final.Total, final.Failed)
	}
	if len(final.Results) != 3 {
		t.Fatalf("final results = %d, want 3", len(final.Results))
	}
	for i, r := range final.Results {
		if r.Error != "" || !r.Converged || r.MaxVonMises <= 0 {
			t.Errorf("result %d implausible: %+v", i, r)
		}
		if r.Field != nil {
			t.Errorf("result %d returned a field without includeField", i)
		}
	}
	if final.StartedAt == "" || final.FinishedAt == "" || final.RunMS <= 0 {
		t.Errorf("missing timing: %+v", final)
	}

	// The SSE stream must have carried the full lifecycle: pending and
	// running state events, one scenario event per scenario, and a
	// terminal done event — then close.
	events := readSSE(t, sseResp)
	var states []string
	scenarios := 0
	for _, ev := range events {
		switch ev.Type {
		case jobqueue.EventState:
			states = append(states, string(ev.State))
		case jobqueue.EventScenario:
			scenarios++
			if ev.Total != 3 {
				t.Errorf("scenario event total = %d, want 3", ev.Total)
			}
			// The three scenarios share one lattice, so the events carry
			// the solver telemetry: every iterative solve names its
			// preconditioner, and every solve after the first warm-starts
			// from its predecessor's solution.
			if ev.Precond == "" {
				t.Errorf("scenario %d event missing precond", ev.Scenario)
			}
			if wantWarm := scenarios > 1; ev.WarmStart != wantWarm {
				t.Errorf("scenario %d warmStart = %v, want %v", ev.Scenario, ev.WarmStart, wantWarm)
			}
			// The preconditioner is built by the lattice's first solve and
			// cached on its assembly for the rest of the sweep.
			if wantCached := scenarios > 1; ev.PrecondCached != wantCached {
				t.Errorf("scenario %d precondCached = %v, want %v", ev.Scenario, ev.PrecondCached, wantCached)
			}
		}
		if ev.JobID != sub.ID {
			t.Errorf("event for job %q, want %q", ev.JobID, sub.ID)
		}
	}
	if want := []string{"pending", "running", "done"}; fmt.Sprint(states) != fmt.Sprint(want) {
		t.Errorf("state events %v, want %v", states, want)
	}
	if scenarios != 3 {
		t.Errorf("scenario events = %d, want 3", scenarios)
	}

	// /stats reflects the queue work.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queue.Submitted != 2 || stats.Queue.Done != 1 || stats.Queue.Cancelled != 1 {
		t.Errorf("queue stats %+v, want 2 submitted / 1 done / 1 cancelled", stats.Queue)
	}
	if stats.Queue.ScenariosSolved != 3 || stats.Queue.Capacity != 8 {
		t.Errorf("queue stats %+v, want 3 scenarios / capacity 8", stats.Queue)
	}
	if stats.Cache.Bytes <= 0 || stats.Cache.MaxBytes <= 0 {
		t.Errorf("cache byte accounting missing from stats: %+v", stats.Cache)
	}
}

// readSSE parses a completed SSE stream into its events.
func readSSE(t *testing.T, resp *http.Response) []jobqueue.Event {
	t.Helper()
	var events []jobqueue.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev jobqueue.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE stream error: %v", err)
	}
	return events
}

// TestJobsIncludeFieldSurvivesQueue checks the includeField flag of the
// original request shapes the deferred result exactly as it does the
// synchronous one.
func TestJobsIncludeFieldSurvivesQueue(t *testing.T) {
	ts := testServer(t)
	withField := strings.TrimSuffix(cheapJob, "}") + `,"includeField":true}`
	body := `{"jobs":[` + cheapJob + `,` + withField + `]}`
	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/jobs", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		s, code := getStatus(t, ts.URL+sub.Poll)
		if code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if s.State == "done" {
			if len(s.Results) != 2 {
				t.Fatalf("results = %d, want 2", len(s.Results))
			}
			if s.Results[0].Field != nil {
				t.Error("scenario 0 returned a field without includeField")
			}
			if s.Results[1].Field == nil {
				t.Error("scenario 1 lost its includeField on the way through the queue")
			} else if s.Results[1].Field.NX != 2*4 || s.Results[1].Field.NY != 1*4 {
				t.Errorf("field shape %dx%d", s.Results[1].Field.NX, s.Results[1].Field.NY)
			}
			return
		}
		if s.State == "failed" || s.State == "cancelled" {
			t.Fatalf("job landed in %s", s.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsValidationAndErrors covers the non-happy paths of the async API.
func TestJobsValidationAndErrors(t *testing.T) {
	ts := testServer(t)
	// Bad payloads are rejected at submit time, not queued.
	for _, body := range []string{`{"jobs":[]}`, `{"jobs":[{"rows":0,"cols":1}]}`, `{"rows":`} {
		if code := postJSON(t, ts.URL+"/jobs", body, nil); code != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, code)
		}
	}
	// Unknown IDs 404 on every verb.
	if _, code := getStatus(t, ts.URL+"/jobs/deadbeefdeadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown poll: status %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/deadbeefdeadbeef/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown events: status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/deadbeefdeadbeef", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown cancel: status %d, want 404", dresp.StatusCode)
	}

	// Cancelling a finished job is a conflict.
	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/jobs", `{"jobs":[`+cheapJob+`]}`, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		s, _ := getStatus(t, ts.URL+sub.Poll)
		if s.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sub.ID, nil)
	cresp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished: status %d, want 409", cresp.StatusCode)
	}
}

// TestJobsBackpressure429 fills the queue past capacity and checks the
// HTTP layer translates ErrQueueFull into 429 + Retry-After.
func TestJobsBackpressure429(t *testing.T) {
	// A dedicated tiny queue — depth 1, one worker — with slow scenarios,
	// so the worker reliably holds the first job while the test probes.
	ts := slowServer(t, 500*time.Millisecond, 1)

	// The first submit occupies the worker; the second sits in the FIFO;
	// the third must bounce.
	var first SubmitResponse
	if code := postJSON(t, ts.URL+"/jobs", `{"jobs":[`+cheapJob+`]}`, &first); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	// Wait until the worker claims it so the FIFO is empty.
	deadline := time.Now().Add(time.Minute)
	for {
		s, _ := getStatus(t, ts.URL+"/jobs/"+first.ID)
		if s.State == "running" || s.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code := postJSON(t, ts.URL+"/jobs", `{"jobs":[`+cheapJob+`]}`, nil); code != http.StatusAccepted {
		t.Fatalf("fill submit: %d", code)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"jobs":[`+cheapJob+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// keptCheapJob is cheapJob with its 32-sample field kept in the result.
var keptCheapJob = strings.TrimSuffix(cheapJob, "}") + `,"includeField":true}`

// TestJobsFieldBudget429 checks genuine budget exhaustion surfaces as a
// retryable 429: a job that fits the budget on its own is rejected while
// an earlier job's retained cost occupies it.
func TestJobsFieldBudget429(t *testing.T) {
	engine := morestress.NewEngine(morestress.EngineOptions{Workers: 2})
	queue, err := NewQueue(engine, 8, 1, time.Minute, 40, nil) // keptCheapJob costs 1·2·4² = 32
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(queue.Close)
	ts := httptest.NewServer(New(engine, queue).Routes())
	t.Cleanup(ts.Close)

	// The first job fits (32 ≤ 40) and holds its kept field's cost for the
	// TTL even after finishing.
	if code := postJSON(t, ts.URL+"/jobs", `{"jobs":[`+keptCheapJob+`]}`, nil); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code)
	}
	// The second would also fit an empty budget, but 32+32 > 40.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"jobs":[`+keptCheapJob+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted-budget submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// A field-less job costs nothing and is accepted.
	if code := postJSON(t, ts.URL+"/jobs", `{"jobs":[{"resolution":"coarse","nodes":3,"rows":1,"cols":1,"deltaT":-50}]}`, nil); code != http.StatusAccepted {
		t.Errorf("zero-cost submit: status %d, want 202", code)
	}
}

// TestJobsDroppedFieldFreesBudget: a scenario without includeField keeps
// no field once it finishes, so its job holds the field's cost only while
// it runs. With a 50-sample budget, a finished 32-sample job of that kind
// leaves room for a second identical job.
func TestJobsDroppedFieldFreesBudget(t *testing.T) {
	engine := morestress.NewEngine(morestress.EngineOptions{Workers: 2})
	queue, err := NewQueue(engine, 8, 1, time.Minute, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(queue.Close)
	ts := httptest.NewServer(New(engine, queue).Routes())
	t.Cleanup(ts.Close)

	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/jobs", `{"jobs":[`+cheapJob+`]}`, &sub); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code)
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		s, code := getStatus(t, ts.URL+sub.Poll)
		if code != http.StatusOK || s.State == "failed" || s.State == "cancelled" {
			t.Fatalf("first job: status %d, state %q", code, s.State)
		}
		if s.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job did not finish")
		}
	}
	if st := queue.Stats(); st.RetainedCost != 0 {
		t.Errorf("finished field-less job still holds %d samples of the budget", st.RetainedCost)
	}
	if code := postJSON(t, ts.URL+"/jobs", `{"jobs":[`+cheapJob+`]}`, nil); code != http.StatusAccepted {
		t.Fatalf("second identical submit: status %d, want 202", code)
	}
}

// TestJobsOversizedForBudgetIs413 checks a job bigger than the entire
// field budget is rejected as permanently oversized (413), not retryably
// throttled (429).
func TestJobsOversizedForBudgetIs413(t *testing.T) {
	engine := morestress.NewEngine(morestress.EngineOptions{Workers: 2})
	queue, err := NewQueue(engine, 8, 1, time.Minute, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(queue.Close)
	ts := httptest.NewServer(New(engine, queue).Routes())
	t.Cleanup(ts.Close)

	// 32 samples > the whole 10-sample budget: no amount of retrying helps.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"jobs":[`+cheapJob+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("permanent rejection carries Retry-After")
	}
}

// TestSSEStreamEndsOnShutdown pins a job in running, attaches an SSE
// subscriber, and begins server shutdown: the stream must end promptly
// instead of forcing httpSrv.Shutdown to wait out its whole deadline.
func TestSSEStreamEndsOnShutdown(t *testing.T) {
	engine := morestress.NewEngine(morestress.EngineOptions{Workers: 2})
	queue, err := jobqueue.New(jobqueue.Options{
		Depth: 4, Workers: 1, TTL: time.Minute,
		Solve: func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
			<-ctx.Done() // pin the job in running so the stream stays open
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(queue.Close)
	srv := New(engine, queue)
	ts := httptest.NewServer(srv.Routes())
	t.Cleanup(ts.Close)

	var sub SubmitResponse
	if code := postJSON(t, ts.URL+"/jobs", `{"jobs":[{"rows":1,"cols":1}]}`, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Get(ts.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read one event so the handler is demonstrably attached and streaming.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("read first SSE line: %v", err)
	}

	start := time.Now()
	srv.BeginShutdown()
	// With the stream released, the body reaches EOF almost immediately;
	// before the fix this read would hang until the client timeout.
	for {
		if _, err := br.ReadString('\n'); err != nil {
			break
		}
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("stream took %v to end after shutdown began", waited)
	}
}
