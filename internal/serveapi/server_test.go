package serveapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	morestress "repro"
)

// testServer returns an httptest server over a fresh engine and a
// single-worker job queue (strict FIFO, so queued-job tests are
// deterministic).
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	engine := morestress.NewEngine(morestress.EngineOptions{Workers: 2})
	queue, err := NewQueue(engine, 8, 1, time.Minute, DefaultJobFieldBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(queue.Close)
	ts := httptest.NewServer(New(engine, queue).Routes())
	t.Cleanup(ts.Close)
	return ts
}

// cheapJob is a coarse low-order request that keeps the local stage fast.
const cheapJob = `{"resolution":"coarse","nodes":3,"rows":1,"cols":2,"deltaT":-100,"gridSamples":4}`

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body["ok"] {
		t.Error("healthz not ok")
	}
}

func TestSolveEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(cheapJob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error != "" {
		t.Fatalf("solve error: %s", out.Error)
	}
	if !out.Converged || out.MaxVonMises <= 0 || out.GlobalDoFs <= 0 {
		t.Errorf("implausible solve response: %+v", out)
	}
	if out.Field != nil {
		t.Error("field returned without includeField")
	}
}

func TestSolveIncludeField(t *testing.T) {
	ts := testServer(t)
	body := strings.TrimSuffix(cheapJob, "}") + `,"includeField":true}`
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Field == nil {
		t.Fatal("includeField returned no field")
	}
	if out.Field.NX != 2*4 || out.Field.NY != 1*4 || len(out.Field.V) != out.Field.NX*out.Field.NY {
		t.Errorf("field shape %d×%d (%d values)", out.Field.NX, out.Field.NY, len(out.Field.V))
	}
}

func TestSolveRejectsBadRequests(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"rows":`},
		{"unknown field", `{"rows":1,"cols":1,"bogus":true}`},
		{"zero size", `{"rows":0,"cols":4}`},
		{"bad solver", `{"rows":1,"cols":1,"solver":"lu"}`},
		{"bad structure", `{"rows":1,"cols":1,"structure":"coax"}`},
		{"oversized", `{"rows":100000,"cols":1}`},
		{"oversized field", `{"rows":512,"cols":512,"gridSamples":500}`},
		{"field without samples", `{"rows":1,"cols":1,"includeField":true}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Wrong method routes to 405.
	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d, want 405", resp.StatusCode)
	}
}

func TestBatchEndpointSharesCache(t *testing.T) {
	ts := testServer(t)
	batch := `{"jobs":[` + cheapJob + `,` + cheapJob + `,` + cheapJob + `]}`
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 || out.Stats.Errors != 0 {
		t.Fatalf("batch stats %+v", out.Stats)
	}
	if out.Stats.CacheMisses != 1 || out.Stats.CacheHits != 2 {
		t.Errorf("cache misses/hits = %d/%d, want 1/2 (identical unit cells)", out.Stats.CacheMisses, out.Stats.CacheHits)
	}

	// The /stats endpoint reflects the work done.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.JobsDone != 3 || stats.Cache.Misses != 1 || stats.Cache.Entries != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestSolveExplicitZeroDeltaT checks that an explicit "deltaT": 0 is the
// zero-load baseline (zero stress), not silently coerced to the −250
// default.
func TestSolveExplicitZeroDeltaT(t *testing.T) {
	ts := testServer(t)
	body := `{"resolution":"coarse","nodes":3,"rows":1,"cols":1,"deltaT":0,"gridSamples":3}`
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error != "" {
		t.Fatalf("solve error: %s", out.Error)
	}
	if out.MaxVonMises != 0 {
		t.Errorf("ΔT=0 produced max von Mises %g MPa, want 0 (deltaT coerced to default?)", out.MaxVonMises)
	}
}

func TestBatchRejectsEmptyAndBadJobs(t *testing.T) {
	ts := testServer(t)
	// A batch whose per-job fields are each in limits but whose sum is not.
	big := strings.Repeat(`{"rows":512,"cols":16,"gridSamples":22},`, 24)
	overAggregate := `{"jobs":[` + strings.TrimSuffix(big, ",") + `]}`
	for _, body := range []string{`{"jobs":[]}`, `{"jobs":[{"rows":0,"cols":1}]}`, overAggregate} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestTolRange: a tol outside [1e-12, 1) — one a float64 residual cannot
// certify, or no tolerance at all — is a 400 naming the range on every
// submission endpoint, before it reaches a worker; the tightest accepted
// tol still converges.
func TestTolRange(t *testing.T) {
	ts := testServer(t)
	for _, tol := range []string{"1e-300", "-1", "1"} {
		job := `{"resolution":"coarse","nodes":3,"rows":1,"cols":2,"deltaT":-100,"tol":` + tol + `}`
		for path, body := range map[string]string{
			"/solve": job,
			"/batch": `{"jobs":[` + job + `]}`,
			"/jobs":  `{"jobs":[` + job + `]}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]string
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil {
				t.Errorf("tol %s on %s: status %d (decode %v), want 400", tol, path, resp.StatusCode, err)
				continue
			}
			if !strings.Contains(out["error"], "[1e-12, 1)") {
				t.Errorf("tol %s on %s: error %q does not name the range", tol, path, out["error"])
			}
		}
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"resolution":"coarse","nodes":3,"rows":1,"cols":2,"deltaT":-100,"tol":1e-12}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !out.Converged {
		t.Errorf("tol 1e-12: status %d, converged %v (%s), want a converged 200", resp.StatusCode, out.Converged, out.Error)
	}
}

// TestSolvePrecondField checks the per-request preconditioner control: a
// named preconditioner is honored and echoed in the response, an unknown
// one is a 400, and an iterative response always names its (auto-resolved)
// preconditioner.
func TestSolvePrecondField(t *testing.T) {
	ts := testServer(t)

	post := func(body string) (*http.Response, JobResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out JobResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp, out
	}

	resp, out := post(`{"resolution":"coarse","nodes":3,"rows":1,"cols":2,"deltaT":-100,"solver":"cg","precond":"bj3"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Precond != "block-jacobi3" {
		t.Errorf("precond = %q, want block-jacobi3", out.Precond)
	}

	resp, out = post(cheapJob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Precond == "" || out.Precond == "auto" {
		t.Errorf("iterative response should name the resolved preconditioner, got %q", out.Precond)
	}

	resp, _ = post(`{"rows":1,"cols":1,"precond":"bogus"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown precond: status %d, want 400", resp.StatusCode)
	}
}

// TestRetiredOrderingRejected: "ordering" and "precision" are no longer
// request fields — the IC0 factor's ordering and precision follow the
// lattice alone — so naming either, with any value ("auto"
// included), is a 400 naming the field on every submission endpoint.
func TestRetiredOrderingRejected(t *testing.T) {
	ts := testServer(t)
	for field, values := range map[string][]string{
		"ordering":  {"auto", "natural", "multicolor", "rcm"},
		"precision": {"auto", "float64", "float32"},
	} {
		for _, v := range values {
			job := `{"resolution":"coarse","nodes":3,"rows":1,"cols":2,"deltaT":-100,"` + field + `":"` + v + `"}`
			for path, body := range map[string]string{
				"/solve": job,
				"/batch": `{"jobs":[` + job + `]}`,
				"/jobs":  `{"jobs":[` + job + `]}`,
			} {
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var out map[string]string
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || err != nil {
					t.Errorf("%s %s: status %d (decode %v), want 400", path, body, resp.StatusCode, err)
				} else if want := `unknown field "` + field + `"`; !strings.Contains(out["error"], want) {
					t.Errorf("%s %s: error %q does not say %s", path, body, out["error"], want)
				}
			}
		}
	}
}

// TestRetiredPrecondRejected: the deleted scalar "jacobi" preconditioner is
// an unknown spelling on every submission endpoint — a 400 whose error lists
// the preconditioners that remain.
func TestRetiredPrecondRejected(t *testing.T) {
	ts := testServer(t)
	job := `{"resolution":"coarse","nodes":3,"rows":1,"cols":2,"deltaT":-100,"precond":"jacobi"}`
	for path, body := range map[string]string{
		"/solve": job,
		"/batch": `{"jobs":[` + job + `]}`,
		"/jobs":  `{"jobs":[` + job + `]}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]string
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil {
			t.Errorf("%s: status %d (decode %v), want 400", path, resp.StatusCode, err)
			continue
		}
		for _, valid := range []string{"auto", "block-jacobi3", "ic0", "none"} {
			if !strings.Contains(out["error"], valid) {
				t.Errorf("%s: error %q does not list %q", path, out["error"], valid)
			}
		}
	}
}

// TestSolveOrderingField: the response's "ordering" and "precision" fields
// name the concrete factor a solve ran under — a 1×48 strip on the served
// (5,5,5) coarse cell (4 797 free DoFs) factors IC0 two-ended in float32, a
// 1×2 lattice that asks for block-Jacobi-3 runs the natural ordering — and
// /stats tallies solves per ordering.
func TestSolveOrderingField(t *testing.T) {
	ts := testServer(t)

	post := func(body string) (*http.Response, JobResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out JobResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp, out
	}

	resp, out := post(`{"resolution":"coarse","rows":1,"cols":48,"deltaT":-100}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Precond != "ic0" || out.Ordering != "two-ended" || out.Precision != "float32" {
		t.Errorf("1×48: precond/ordering/precision = %q/%q/%q, want ic0/two-ended/float32", out.Precond, out.Ordering, out.Precision)
	}

	// An iterative solve always names a concrete ordering, never "auto".
	resp, out = post(`{"resolution":"coarse","nodes":3,"rows":1,"cols":2,"deltaT":-100,"precond":"bj3"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Ordering != "natural" { // block-Jacobi-3 factors nothing
		t.Errorf("1×2: ordering %q, want natural", out.Ordering)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	var total int64
	for ord, n := range stats.Solver.OrderingCounts {
		if ord == "auto" {
			t.Errorf("orderingCounts contains the unresolved %q key", ord)
		}
		total += n
	}
	if c := stats.Solver.OrderingCounts; len(c) != 2 || c["two-ended"] < 1 || c["natural"] < 1 {
		t.Errorf("orderingCounts = %v, want two-ended and natural, one solve each", c)
	}
	if total != stats.Solver.IterativeSolves {
		t.Errorf("orderingCounts sum %d != iterativeSolves %d", total, stats.Solver.IterativeSolves)
	}
}

// TestStatsSolverSection checks /stats surfaces the global-stage scaling
// counters: after a two-point sweep on one lattice the server must report
// one assembly, a reuse, and a warm-started iterative solve.
func TestStatsSolverSection(t *testing.T) {
	ts := testServer(t)
	for _, dt := range []string{"-100", "-200"} {
		resp, err := http.Post(ts.URL+"/solve", "application/json",
			strings.NewReader(`{"resolution":"coarse","nodes":3,"rows":1,"cols":2,"deltaT":`+dt+`,"solver":"cg"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve status %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	s := stats.Solver
	if s.Assemblies != 1 {
		t.Errorf("assemblies = %d, want 1", s.Assemblies)
	}
	if s.AssemblyHits != 1 {
		t.Errorf("assemblyHits = %d, want 1", s.AssemblyHits)
	}
	if s.IterativeSolves != 2 || s.WarmStarts != 1 {
		t.Errorf("iterativeSolves/warmStarts = %d/%d, want 2/1", s.IterativeSolves, s.WarmStarts)
	}
	if s.WarmStartRate != 0.5 {
		t.Errorf("warmStartRate = %g, want 0.5", s.WarmStartRate)
	}
	if s.Iterations <= 0 {
		t.Errorf("iterations = %d, want > 0", s.Iterations)
	}
	if s.PrecondBuilds != 1 || s.PrecondHits != 1 {
		t.Errorf("precondBuilds/precondHits = %d/%d, want 1/1 (built once per lattice, then shared)",
			s.PrecondBuilds, s.PrecondHits)
	}
}
