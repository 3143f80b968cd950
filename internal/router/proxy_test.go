package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	morestress "repro"
	"repro/internal/serveapi"
)

// testFleet starts n real serveapi replicas (in-process httptest servers
// over fresh engines) and a proxy fronting them. Returns the proxy's test
// server and the replica base URLs.
func testFleet(t *testing.T, n int) (*httptest.Server, []string) {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		engine := morestress.NewEngine(morestress.EngineOptions{Workers: 2})
		queue, err := serveapi.NewQueue(engine, 8, 1, time.Minute, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(queue.Close)
		rs := httptest.NewServer(serveapi.New(engine, queue).Routes())
		t.Cleanup(rs.Close)
		urls[i] = rs.URL
	}
	proxy, err := NewProxy(ProxyOptions{Replicas: urls, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	ps := httptest.NewServer(proxy.Routes())
	t.Cleanup(ps.Close)
	return ps, urls
}

// cheapReq builds the JSON request for cheapJob(rows, dt).
func cheapReq(rows int, dt float64) string {
	return fmt.Sprintf(`{"resolution":"coarse","nodes":3,"rows":%d,"cols":2,"deltaT":%g,"solver":"cg"}`, rows, dt)
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode
}

func TestProxySolveAffinity(t *testing.T) {
	if testing.Short() {
		t.Skip("solves real scenarios")
	}
	ps, urls := testFleet(t, 3)
	table := NewTable(urls)

	// Two solves per lattice; the parent predicts each lattice's owner from
	// the same table the proxy uses.
	lattices := []int{1, 2, 3, 4}
	wantAssemblies := make(map[string]int64)
	for _, rows := range lattices {
		key := morestress.LatticeKey(cheapJob(t, rows, -250))
		wantAssemblies[urls[table.Pick(key)]]++
		for _, dt := range []float64{-250, -200} {
			var out serveapi.JobResponse
			if code := postJSON(t, ps.URL+"/solve", cheapReq(rows, dt), &out); code != http.StatusOK {
				t.Fatalf("rows=%d dt=%g: status %d", rows, dt, code)
			}
			if out.Error != "" || !out.Converged {
				t.Fatalf("rows=%d dt=%g: %+v", rows, dt, out)
			}
		}
	}
	var total int64
	for _, u := range urls {
		var st serveapi.StatsResponse
		if code := getJSON(t, u+"/stats", &st); code != http.StatusOK {
			t.Fatalf("replica stats: %d", code)
		}
		total += st.Solver.Assemblies
		if st.Solver.Assemblies != wantAssemblies[u] {
			t.Errorf("replica %s built %d assemblies, want %d", u, st.Solver.Assemblies, wantAssemblies[u])
		}
	}
	if total != int64(len(lattices)) {
		t.Errorf("fleet built %d assemblies for %d lattices — affinity broken", total, len(lattices))
	}
}

func TestProxyFailoverToRendezvousRunnerUp(t *testing.T) {
	// Fake replicas that tag their responses; replica "down" answers 503
	// like a replica mid-recovery would.
	mkReplica := func(name string, up bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !up {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"served_by":%q}`, name)
		}))
	}
	a := mkReplica("a", true)
	b := mkReplica("b", false)
	c := mkReplica("c", true)
	defer a.Close()
	defer b.Close()
	defer c.Close()
	urls := []string{a.URL, b.URL, c.URL}
	proxy, err := NewProxy(ProxyOptions{Replicas: urls, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ps := httptest.NewServer(proxy.Routes())
	defer ps.Close()

	table := NewTable(urls)
	nameOf := map[string]string{a.URL: "a", b.URL: "b", c.URL: "c"}
	// Find a request whose owner is the down replica b.
	scratch := make([]int, 0, 3)
	for rows := 1; rows < 200; rows++ {
		body := cheapReq(rows, -250)
		key, err := proxy.SolveKey([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		order := table.Order(key, scratch)
		if urls[order[0]] != b.URL {
			continue
		}
		var out map[string]string
		if code := postJSON(t, ps.URL+"/solve", body, &out); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if want := nameOf[urls[order[1]]]; out["served_by"] != want {
			t.Fatalf("request owned by down replica served by %q, want rendezvous runner-up %q", out["served_by"], want)
		}
		// The down replica is now marked, so a second request must not
		// retry it first (no added latency once marked).
		if code := postJSON(t, ps.URL+"/solve", body, &out); code != http.StatusOK {
			t.Fatalf("status %d on re-request", code)
		}
		var agg AggStats
		if code := getJSON(t, ps.URL+"/stats", &agg); code != http.StatusOK {
			t.Fatalf("stats %d", code)
		}
		if agg.Router.Failovers == 0 {
			t.Error("failover counter never moved")
		}
		for _, rs := range agg.Router.Replicas {
			if rs.URL == b.URL && rs.Up {
				t.Error("down replica still marked up after failed forward")
			}
		}
		return
	}
	t.Fatal("no lattice key owned by replica b in 200 tries (hash broken?)")
}

func TestProxyAllReplicasDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	proxy, err := NewProxy(ProxyOptions{Replicas: []string{dead.URL}, Backoff: time.Millisecond, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ps := httptest.NewServer(proxy.Routes())
	defer ps.Close()
	var out map[string]string
	if code := postJSON(t, ps.URL+"/solve", cheapReq(1, -250), &out); code != http.StatusBadGateway {
		t.Fatalf("status %d with the whole fleet down, want 502", code)
	}
	if out["error"] == "" {
		t.Error("502 carried no error body")
	}
}

func TestProxyJobLifecycleAndSSE(t *testing.T) {
	if testing.Short() {
		t.Skip("solves real scenarios")
	}
	ps, _ := testFleet(t, 3)
	var sub serveapi.SubmitResponse
	if code := postJSON(t, ps.URL+"/jobs", `{"jobs":[`+cheapReq(2, -250)+`]}`, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if !strings.HasPrefix(sub.ID, "s") || !strings.Contains(sub.ID, "-") {
		t.Fatalf("job ID %q carries no replica prefix", sub.ID)
	}
	if sub.Poll != "/jobs/"+sub.ID || sub.Events != "/jobs/"+sub.ID+"/events" {
		t.Fatalf("URLs not rewritten: %+v", sub)
	}

	// SSE passthrough: the stream must deliver a terminal state event.
	resp, err := http.Get(ps.URL + sub.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	sawTerminal := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"state":"done"`) {
			sawTerminal = true
			break
		}
	}
	if !sawTerminal {
		t.Fatal("SSE stream ended without a terminal state event")
	}

	// Poll through the router by prefixed ID.
	var status serveapi.JobStatusResponse
	if code := getJSON(t, ps.URL+sub.Poll, &status); code != http.StatusOK {
		t.Fatalf("poll status %d", code)
	}
	if status.State != "done" || len(status.Results) != 1 {
		t.Fatalf("job status %+v", status)
	}

	// Unknown and malformed IDs are 404 at the router.
	for _, id := range []string{"nosuchprefix", "s9-abc", "s-abc"} {
		resp, err := http.Get(ps.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /jobs/%s: status %d, want 404", id, resp.StatusCode)
		}
	}
}

func TestProxyBatchSplitsAndMerges(t *testing.T) {
	if testing.Short() {
		t.Skip("solves real scenarios")
	}
	ps, urls := testFleet(t, 3)
	// Lattices chosen to span more than one replica, interleaved with
	// repeats, so the merge has to reassemble input order across sub-batches.
	table := NewTable(urls)
	rowsSeq := []int{1, 2, 3, 1, 4, 2}
	owners := make(map[int]bool)
	var sb strings.Builder
	sb.WriteString(`{"jobs":[`)
	for i, rows := range rowsSeq {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(cheapReq(rows, -250+float64(i)))
		owners[table.Pick(morestress.LatticeKey(cheapJob(t, rows, -250)))] = true
	}
	sb.WriteString(`]}`)
	if len(owners) < 2 {
		t.Skip("chosen lattices all landed on one replica; batch split not exercised")
	}
	var out serveapi.BatchResponse
	if code := postJSON(t, ps.URL+"/batch", sb.String(), &out); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(out.Results) != len(rowsSeq) {
		t.Fatalf("%d results for %d jobs", len(out.Results), len(rowsSeq))
	}
	if out.Stats.Jobs != len(rowsSeq) || out.Stats.Errors != 0 {
		t.Fatalf("batch stats %+v", out.Stats)
	}
	for i, res := range out.Results {
		if res.Error != "" || !res.Converged || res.GlobalDoFs <= 0 {
			t.Errorf("result %d: %+v", i, res)
		}
	}
	// DoFs grow with rows — check results came back in input order by
	// comparing the repeated lattices.
	if out.Results[0].GlobalDoFs != out.Results[3].GlobalDoFs {
		t.Error("results 0 and 3 (same lattice) disagree on DoFs — merge order broken")
	}
	if out.Results[1].GlobalDoFs != out.Results[5].GlobalDoFs {
		t.Error("results 1 and 5 (same lattice) disagree on DoFs — merge order broken")
	}
	if out.Results[0].GlobalDoFs >= out.Results[4].GlobalDoFs {
		t.Error("rows=1 reported at least as many DoFs as rows=4 — results misordered")
	}
}

func TestProxyStatsAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("solves real scenarios")
	}
	ps, urls := testFleet(t, 2)
	for rows := 1; rows <= 3; rows++ {
		if code := postJSON(t, ps.URL+"/solve", cheapReq(rows, -250), nil); code != http.StatusOK {
			t.Fatalf("solve status %d", code)
		}
	}
	var agg AggStats
	if code := getJSON(t, ps.URL+"/stats", &agg); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if agg.Fleet.JobsDone != 3 {
		t.Errorf("fleet jobsDone %d, want 3", agg.Fleet.JobsDone)
	}
	if len(agg.Router.Replicas) != len(urls) {
		t.Fatalf("router reports %d replicas, want %d", len(agg.Router.Replicas), len(urls))
	}
	var forwards int64
	for _, rs := range agg.Router.Replicas {
		if rs.Error != "" {
			t.Errorf("replica %s stats error: %s", rs.URL, rs.Error)
		}
		forwards += rs.Forwards
	}
	if forwards != 3 || agg.Router.Forwards != 3 {
		t.Errorf("forward counters: per-replica sum %d, total %d, want 3", forwards, agg.Router.Forwards)
	}
	if len(agg.Fleet.Shards) != len(urls) {
		t.Errorf("fleet breakdown has %d entries, want %d", len(agg.Fleet.Shards), len(urls))
	}
}

func TestProxyReadyz(t *testing.T) {
	ps, _ := testFleet(t, 2)
	resp, err := http.Get(ps.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d with replicas up", resp.StatusCode)
	}

	dead, err := NewProxy(ProxyOptions{Replicas: []string{"http://127.0.0.1:1"}, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	dead.replicas[0].up.Store(false) // what the probe loop would conclude
	ds := httptest.NewServer(dead.Routes())
	defer ds.Close()
	resp, err = http.Get(ds.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d with the whole fleet down, want 503", resp.StatusCode)
	}
}

func TestProxyProbeRecoversReplica(t *testing.T) {
	// A replica that starts not-ready and then becomes ready: the probe
	// loop must flip it back up without any traffic.
	var ready atomic.Bool
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer rep.Close()
	proxy, err := NewProxy(ProxyOptions{
		Replicas:      []string{rep.URL},
		ProbeInterval: 5 * time.Millisecond,
		Backoff:       time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy.Start()
	defer proxy.Close()

	deadline := time.Now().Add(5 * time.Second)
	for proxy.replicas[0].up.Load() {
		if time.Now().After(deadline) {
			t.Fatal("probe never marked the not-ready replica down")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ready.Store(true)
	for !proxy.replicas[0].up.Load() {
		if time.Now().After(deadline) {
			t.Fatal("probe never marked the recovered replica up")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestProxyRejectsRetiredOrdering: a request naming the deleted "rcm"
// ordering derives no lattice key at the proxy, is forwarded raw, and comes
// back as the replica's 400.
func TestProxyRejectsRetiredOrdering(t *testing.T) {
	ps, _ := testFleet(t, 2)
	job := `{"resolution":"coarse","nodes":3,"rows":1,"cols":2,"deltaT":-100,"ordering":"rcm"}`
	for path, body := range map[string]string{
		"/solve": job,
		"/batch": `{"jobs":[` + job + `]}`,
		"/jobs":  `{"jobs":[` + job + `]}`,
	} {
		var out map[string]string
		if code := postJSON(t, ps.URL+path, body, &out); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		} else if !strings.Contains(out["error"], "multicolor") {
			t.Errorf("%s: error %q does not list the valid orderings", path, out["error"])
		}
	}
}

func TestSolveKeyCanonical(t *testing.T) {
	proxy, err := NewProxy(ProxyOptions{Replicas: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// The same scenario spelled three ways: minimal, field-reordered, and
	// with every default written out. All must derive one key.
	bodies := []string{
		`{"rows":8,"cols":8}`,
		`{"cols":8,"rows":8}`,
		`{"pitch":15,"nodes":5,"resolution":"default","structure":"tsv","rows":8,"cols":8,"deltaT":-250,"solver":"gmres"}`,
	}
	want, err := proxy.SolveKey([]byte(bodies[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bodies[1:] {
		got, err := proxy.SolveKey([]byte(b))
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if got != want {
			t.Errorf("%s: key %q, want %q", b, got, want)
		}
	}
	// ΔT and solver options must NOT change the key (they are not part of
	// the lattice), but geometry must.
	same, err := proxy.SolveKey([]byte(`{"rows":8,"cols":8,"deltaT":-100,"solver":"cg","tol":0.001}`))
	if err != nil {
		t.Fatal(err)
	}
	if same != want {
		t.Error("solver options changed the lattice key")
	}
	diff, err := proxy.SolveKey([]byte(`{"rows":8,"cols":9}`))
	if err != nil {
		t.Fatal(err)
	}
	if diff == want {
		t.Error("different lattice produced the same key")
	}
	if _, err := proxy.SolveKey([]byte(`{"rows":0}`)); err == nil {
		t.Error("invalid request produced a key without error")
	}
}
