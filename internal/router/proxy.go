package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	morestress "repro"
	"repro/internal/serveapi"
)

// ProxyOptions configures a Proxy.
type ProxyOptions struct {
	// Replicas are the base URLs of the replica fleet (e.g.
	// "http://10.0.0.7:8080"). Order is irrelevant to placement — the
	// rendezvous table hashes the URLs themselves — but is preserved in
	// stats output.
	Replicas []string
	// ProbeInterval is how often each replica's /readyz is polled
	// (default 500ms); ProbeTimeout bounds one probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Retries bounds the forwarding attempts for one request across the
	// rendezvous failover order (default: one per replica, twice — the
	// second pass retries replicas marked down, in case the marks are
	// stale). Backoff is the pause between consecutive attempts
	// (default 50ms), growing linearly with the attempt number.
	Retries int
	Backoff time.Duration
	// Client issues the forwarded requests (default: http.Client with no
	// overall timeout — solves are long; per-probe timeouts still apply).
	Client *http.Client
}

// replica is one backend in the fleet.
type replica struct {
	base string
	// up is the health mark: flipped by the active /readyz probe loop and
	// passively by forwarding outcomes. A down replica is skipped on the
	// first failover pass but still tried on the second — marks can be
	// stale, and a wrongly-down replica is cheaper to probe with a real
	// request than to abandon.
	up       atomic.Bool
	forwards atomic.Int64
}

// Proxy is the cmd/router core: an http.Handler that forwards each request
// to the replica owning its lattice key, with health-aware failover along
// the rendezvous order. It keeps no request state — job IDs carry their
// replica in an "s<idx>-" prefix — so any number of router instances can
// front the same fleet and agree on placement.
type Proxy struct {
	opt      ProxyOptions
	table    *Table
	replicas []*replica
	client   *http.Client

	forwards  atomic.Int64
	retries   atomic.Int64
	failovers atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewProxy builds a proxy over the replica base URLs. Replicas start
// optimistically up (traffic flows before the first probe round completes);
// call Start to run the active health probes, and Close to stop them.
func NewProxy(opt ProxyOptions) (*Proxy, error) {
	if len(opt.Replicas) == 0 {
		return nil, errors.New("router: proxy needs at least one replica URL")
	}
	if opt.ProbeInterval <= 0 {
		opt.ProbeInterval = 500 * time.Millisecond
	}
	if opt.ProbeTimeout <= 0 {
		opt.ProbeTimeout = 2 * time.Second
	}
	if opt.Retries <= 0 {
		opt.Retries = 2 * len(opt.Replicas)
	}
	if opt.Backoff <= 0 {
		opt.Backoff = 50 * time.Millisecond
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}
	p := &Proxy{
		opt:      opt,
		table:    NewTable(opt.Replicas),
		replicas: make([]*replica, len(opt.Replicas)),
		client:   client,
		stop:     make(chan struct{}),
	}
	for i, base := range opt.Replicas {
		p.replicas[i] = &replica{base: strings.TrimRight(base, "/")}
		p.replicas[i].up.Store(true)
	}
	return p, nil
}

// Start launches the per-replica health probe loops.
//
//stressvet:gang -- one probe goroutine per replica, joined by Close
func (p *Proxy) Start() {
	for i := range p.replicas {
		p.wg.Add(1)
		go p.probeLoop(i)
	}
}

// Close stops the probe loops and waits for them; safe to call repeatedly.
func (p *Proxy) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// probeLoop polls one replica's /readyz until Close. Probing readiness, not
// liveness, keeps the router out of a replica's journal-recovery window:
// the process may be up, but until replay finishes it answers 503 and the
// router routes its keyspace to the next shard in rendezvous order.
func (p *Proxy) probeLoop(i int) {
	defer p.wg.Done()
	rep := p.replicas[i]
	ticker := time.NewTicker(p.opt.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			rep.up.Store(p.probe(rep))
		}
	}
}

func (p *Proxy) probe(rep *replica) bool {
	req, err := http.NewRequest(http.MethodGet, rep.base+"/readyz", nil)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(req.Context(), p.opt.ProbeTimeout)
	defer cancel()
	resp, err := p.client.Do(req.WithContext(ctx))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// SolveKey derives the routing key of a /solve-shaped body: the lattice key
// of the decoded scenario — identical to the string the replica's engine
// keys its assembly cache by (the preconditioners, factor and unit-load
// solutions live on each assembly), which is what makes routing
// cache-affine. Canonically-equal bodies (reordered fields,
// defaults spelled out or omitted) decode to the same Job and therefore the
// same key. Invalid bodies return an error; the caller still routes them
// (deterministically, by empty key) so the owning replica produces the
// canonical 400.
func (p *Proxy) SolveKey(body []byte) (string, error) {
	var req serveapi.JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", err
	}
	job, err := req.ToJob(morestress.PrecondAuto, morestress.OrderingAuto)
	if err != nil {
		return "", err
	}
	return morestress.LatticeKey(job), nil
}

// Routes builds the proxy's handler mux, mirroring the replica surface.
func (p *Proxy) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", p.handleSolve)
	mux.HandleFunc("POST /batch", p.handleBatch)
	mux.HandleFunc("POST /jobs", p.handleJobSubmit)
	mux.HandleFunc("GET /jobs/{id}", p.handleJobByID)
	mux.HandleFunc("DELETE /jobs/{id}", p.handleJobByID)
	mux.HandleFunc("GET /jobs/{id}/events", p.handleJobEvents)
	mux.HandleFunc("GET /stats", p.handleStats)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /readyz", p.handleReadyz)
	return mux
}

func (p *Proxy) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serveapi.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
		return nil, false
	}
	return body, true
}

func (p *Proxy) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, ok := p.readBody(w, r)
	if !ok {
		return
	}
	key, _ := p.SolveKey(body) // invalid body → empty key, still deterministic
	p.forward(w, r, key, "/solve", body)
}

func (p *Proxy) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := p.readBody(w, r)
	if !ok {
		return
	}
	// A job is routed by its first scenario's lattice: multi-lattice jobs
	// exist, but the common shape is a sweep over one lattice, and a job
	// must land whole on one replica because its lifecycle (status, events,
	// cancel) lives where it was accepted.
	key, _ := p.batchKey(body)
	idx, resp, err := p.forwardRaw(r, key, "/jobs", body)
	if err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		copyResponse(w, resp)
		return
	}
	// Rewrite the accepted-job envelope so the ID carries its replica:
	// any router instance can later route GET /jobs/{id} statelessly.
	var sub serveapi.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("replica sent unparseable submit response: %w", err))
		return
	}
	sub.ID = jobID(idx, sub.ID)
	sub.Poll = "/jobs/" + sub.ID
	sub.Events = "/jobs/" + sub.ID + "/events"
	writeJSON(w, http.StatusAccepted, sub)
}

// batchKey derives the routing key of a batch-shaped body ({"jobs": [...]})
// from its first scenario.
func (p *Proxy) batchKey(body []byte) (string, error) {
	var req serveapi.BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", err
	}
	if len(req.Jobs) == 0 {
		return "", errors.New("batch has no jobs")
	}
	job, err := req.Jobs[0].ToJob(morestress.PrecondAuto, morestress.OrderingAuto)
	if err != nil {
		return "", err
	}
	return morestress.LatticeKey(job), nil
}

// handleBatch splits a batch by owning replica and forwards the sub-batches
// concurrently, merging results back into input order — the batch analogue
// of cache-affine routing: every scenario still solves where its lattice is
// warm, and cross-lattice batches fan out across the fleet for free.
//
//stressvet:gang -- one goroutine per sub-batch, bounded by the replica count
func (p *Proxy) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := p.readBody(w, r)
	if !ok {
		return
	}
	var req serveapi.BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || len(req.Jobs) == 0 {
		// Malformed at the proxy: forward raw so the replica produces the
		// canonical validation error.
		p.forward(w, r, "", "/batch", body)
		return
	}
	start := time.Now()
	parts := make([][]int, p.table.Len())
	for i := range req.Jobs {
		key := ""
		if job, err := req.Jobs[i].ToJob(morestress.PrecondAuto, morestress.OrderingAuto); err == nil {
			key = morestress.LatticeKey(job)
		}
		sh := p.table.Pick(key)
		parts[sh] = append(parts[sh], i)
	}
	single := -1
	for sh, idxs := range parts {
		if len(idxs) > 0 {
			if single != -1 {
				single = -2
				break
			}
			single = sh
		}
	}
	if single >= 0 {
		// One owner: forward the original body untouched.
		p.forward(w, r, p.table.Name(single), "/batch", body)
		return
	}
	type subResult struct {
		resp serveapi.BatchResponse
		err  error
		code int
	}
	subs := make([]subResult, p.table.Len())
	var wg sync.WaitGroup
	for sh, idxs := range parts {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, idxs []int) {
			defer wg.Done()
			var sub serveapi.BatchRequest
			sub.Jobs = make([]serveapi.JobRequest, len(idxs))
			for k, i := range idxs {
				sub.Jobs[k] = req.Jobs[i]
			}
			payload, err := json.Marshal(sub)
			if err != nil {
				subs[sh].err = err
				return
			}
			_, resp, err := p.forwardRaw(r, p.table.Name(sh), "/batch", payload)
			if err != nil {
				subs[sh].err = err
				return
			}
			defer resp.Body.Close()
			subs[sh].code = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				subs[sh].err = fmt.Errorf("replica returned %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
				return
			}
			subs[sh].err = json.NewDecoder(resp.Body).Decode(&subs[sh].resp)
		}(sh, idxs)
	}
	wg.Wait()
	var out serveapi.BatchResponse
	out.Results = make([]serveapi.JobResponse, len(req.Jobs))
	for sh, idxs := range parts {
		if len(idxs) == 0 {
			continue
		}
		sub := &subs[sh]
		if sub.err != nil {
			// A lost sub-batch degrades to per-job errors rather than
			// failing scenarios that other replicas completed.
			for _, i := range idxs {
				out.Results[i] = serveapi.JobResponse{Error: fmt.Sprintf("shard %s: %v", p.table.Name(sh), sub.err)}
			}
			out.Stats.Errors += len(idxs)
			continue
		}
		for k, i := range idxs {
			if k < len(sub.resp.Results) {
				out.Results[i] = sub.resp.Results[k]
			}
		}
		out.Stats.Errors += sub.resp.Stats.Errors
		out.Stats.CacheHits += sub.resp.Stats.CacheHits
		out.Stats.CacheMisses += sub.resp.Stats.CacheMisses
		out.Stats.LocalMS += sub.resp.Stats.LocalMS
		out.Stats.GlobalMS += sub.resp.Stats.GlobalMS
	}
	out.Stats.Jobs = len(req.Jobs)
	out.Stats.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, out)
}

// jobID prefixes a replica-local job ID with its replica index so the
// router can route lifecycle requests statelessly. Only the envelope of the
// submit response is rewritten — IDs inside event payloads and status
// bodies stay replica-local; clients must use the URLs the router returned.
func jobID(idx int, id string) string {
	return "s" + strconv.Itoa(idx) + "-" + id
}

// splitJobID reverses jobID. ok is false when the ID carries no (valid)
// replica prefix.
func splitJobID(id string, n int) (idx int, rest string, ok bool) {
	if len(id) < 3 || id[0] != 's' {
		return 0, "", false
	}
	dash := strings.IndexByte(id, '-')
	if dash < 2 {
		return 0, "", false
	}
	idx, err := strconv.Atoi(id[1:dash])
	if err != nil || idx < 0 || idx >= n {
		return 0, "", false
	}
	return idx, id[dash+1:], true
}

// handleJobByID routes GET/DELETE /jobs/{id} to the replica encoded in the
// ID prefix. No failover: the job's lifecycle exists only where it was
// accepted, so a down owner is a 502, not a retry elsewhere.
func (p *Proxy) handleJobByID(w http.ResponseWriter, r *http.Request) {
	idx, rest, ok := splitJobID(r.PathValue("id"), len(p.replicas))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such job (IDs issued by this router look like s<replica>-<id>)"))
		return
	}
	p.forwardTo(w, r, idx, "/jobs/"+rest, nil, false)
}

// handleJobEvents is the SSE passthrough: the replica's event stream is
// copied chunk-by-chunk with a flush after every read, so live transitions
// reach the client as they happen rather than when a buffer fills.
func (p *Proxy) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	idx, rest, ok := splitJobID(r.PathValue("id"), len(p.replicas))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such job (IDs issued by this router look like s<replica>-<id>)"))
		return
	}
	p.forwardTo(w, r, idx, "/jobs/"+rest+"/events", nil, true)
}

// forwardTo proxies one request to a specific replica, copying the response
// through (streamed, with per-chunk flushes, when stream is set).
func (p *Proxy) forwardTo(w http.ResponseWriter, r *http.Request, idx int, path string, body []byte, stream bool) {
	rep := p.replicas[idx]
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, rep.base+path, rd)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		rep.up.Store(false)
		httpError(w, http.StatusBadGateway, fmt.Errorf("replica %s: %w", rep.base, err))
		return
	}
	defer resp.Body.Close()
	rep.up.Store(true)
	rep.forwards.Add(1)
	p.forwards.Add(1)
	if stream {
		streamResponse(w, resp)
		return
	}
	copyResponse(w, resp)
}

// forward proxies a keyed request with failover and writes the response.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, key, path string, body []byte) {
	_, resp, err := p.forwardRaw(r, key, path, body)
	if err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// forwardRaw sends the body to the replica owning key, failing over along
// the rendezvous order: the first pass tries replicas marked up, the second
// retries every replica (health marks can be stale). An attempt fails over
// on a transport error or a 502/503/504 — statuses a replica returns when
// it cannot take traffic (mid-recovery /readyz gate, shutting down), where
// the next shard in rendezvous order can. Any other status, including
// errors like 400 or 429, is the authoritative answer from the owner and is
// returned as-is. The caller owns resp.Body.
func (p *Proxy) forwardRaw(r *http.Request, key, path string, body []byte) (int, *http.Response, error) {
	order := p.table.Order(key, make([]int, 0, len(p.replicas)))
	attempts := 0
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for _, idx := range order {
			rep := p.replicas[idx]
			if pass == 0 && !rep.up.Load() {
				continue
			}
			if attempts >= p.opt.Retries {
				return 0, nil, fmt.Errorf("no replica accepted the request after %d attempts: %w", attempts, lastErr)
			}
			if attempts > 0 {
				p.retries.Add(1)
				select {
				case <-r.Context().Done():
					return 0, nil, r.Context().Err()
				case <-time.After(time.Duration(attempts) * p.opt.Backoff):
				}
			}
			attempts++
			req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, rep.base+path, bytes.NewReader(body))
			if err != nil {
				return 0, nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := p.client.Do(req)
			if err != nil {
				rep.up.Store(false)
				lastErr = fmt.Errorf("replica %s: %w", rep.base, err)
				if r.Context().Err() != nil {
					return 0, nil, lastErr
				}
				continue
			}
			switch resp.StatusCode {
			case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				rep.up.Store(false)
				lastErr = fmt.Errorf("replica %s returned %d", rep.base, resp.StatusCode)
				continue
			}
			rep.up.Store(true)
			rep.forwards.Add(1)
			p.forwards.Add(1)
			if idx != order[0] {
				// Served off-owner — whether the owner failed an attempt or
				// was skipped on a health mark, this request lost affinity.
				p.failovers.Add(1)
			}
			return idx, resp, nil
		}
	}
	return 0, nil, fmt.Errorf("no replica accepted the request after %d attempts: %w", attempts, lastErr)
}

// RouterStats is the router section of the proxy's /stats payload.
// Forwards counts requests that reached a replica; Retries counts extra
// attempts beyond each request's first; Failovers counts requests answered
// by a replica other than their key's rendezvous owner — the affinity-loss
// signal, whether the owner failed the attempt or was skipped on a health
// mark.
type RouterStats struct {
	Replicas  []ReplicaStatus `json:"replicas"`
	Forwards  int64           `json:"forwards"`
	Retries   int64           `json:"retries"`
	Failovers int64           `json:"failovers"`
}

// ReplicaStatus is one replica's health and traffic share.
type ReplicaStatus struct {
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	Forwards int64  `json:"forwards"`
	// Error is set when this stats round could not fetch the replica's own
	// /stats (its counters are then missing from the fleet aggregate).
	Error string `json:"error,omitempty"`
}

// AggStats is the proxy's /stats payload: the fleet aggregate plus the
// router's own forwarding counters. Fleet is the field-wise sum of every
// reachable replica's StatsResponse with the rate fields recomputed from
// the sums; Shards is repurposed as the per-replica breakdown (entry i is
// replica i), which is where the affinity evidence lives in proxy mode.
type AggStats struct {
	Fleet  serveapi.StatsResponse `json:"fleet"`
	Router RouterStats            `json:"router"`
}

// handleStats fans the stats fetch across the fleet concurrently and merges.
//
//stressvet:gang -- one fetch goroutine per replica, joined before merging
func (p *Proxy) handleStats(w http.ResponseWriter, r *http.Request) {
	type fetched struct {
		stats serveapi.StatsResponse
		err   error
	}
	results := make([]fetched, len(p.replicas))
	var wg sync.WaitGroup
	for i := range p.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.replicas[i].base+"/stats", nil)
			if err != nil {
				results[i].err = err
				return
			}
			resp, err := p.client.Do(req)
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("replica returned %d", resp.StatusCode)
				return
			}
			results[i].err = json.NewDecoder(resp.Body).Decode(&results[i].stats)
		}(i)
	}
	wg.Wait()
	var out AggStats
	out.Router.Forwards = p.forwards.Load()
	out.Router.Retries = p.retries.Load()
	out.Router.Failovers = p.failovers.Load()
	out.Router.Replicas = make([]ReplicaStatus, len(p.replicas))
	for i, rep := range p.replicas {
		out.Router.Replicas[i] = ReplicaStatus{
			URL:      rep.base,
			Up:       rep.up.Load(),
			Forwards: rep.forwards.Load(),
		}
		if results[i].err != nil {
			out.Router.Replicas[i].Error = results[i].err.Error()
			continue
		}
		mergeStats(&out.Fleet, &results[i].stats, i)
	}
	if out.Fleet.Solver.IterativeSolves > 0 {
		out.Fleet.Solver.WarmStartRate = float64(out.Fleet.Solver.WarmStarts) / float64(out.Fleet.Solver.IterativeSolves)
	}
	if out.Fleet.UptimeSeconds > 0 {
		out.Fleet.Queue.ThroughputPerSec = float64(out.Fleet.Queue.ScenariosSolved) / out.Fleet.UptimeSeconds
	}
	writeJSON(w, http.StatusOK, out)
}

// mergeStats adds one replica's counters into the fleet aggregate and
// appends its per-replica ShardStats entry. Uptime takes the max (the
// fleet is as old as its oldest replica); capacities and budgets sum.
func mergeStats(dst, src *serveapi.StatsResponse, idx int) {
	if src.UptimeSeconds > dst.UptimeSeconds {
		dst.UptimeSeconds = src.UptimeSeconds
	}
	dst.Requests += src.Requests
	dst.JobsDone += src.JobsDone
	dst.JobsFailed += src.JobsFailed
	dst.Factorizations += src.Factorizations
	dst.FactorHits += src.FactorHits
	dst.Solver.Assemblies += src.Solver.Assemblies
	dst.Solver.AssemblyHits += src.Solver.AssemblyHits
	dst.Solver.IterativeSolves += src.Solver.IterativeSolves
	dst.Solver.WarmStarts += src.Solver.WarmStarts
	dst.Solver.Iterations += src.Solver.Iterations
	dst.Solver.PrecondBuilds += src.Solver.PrecondBuilds
	dst.Solver.PrecondHits += src.Solver.PrecondHits
	for k, v := range src.Solver.OrderingCounts {
		if dst.Solver.OrderingCounts == nil {
			dst.Solver.OrderingCounts = make(map[string]int64)
		}
		dst.Solver.OrderingCounts[k] += v
	}
	for k, v := range src.Solver.PrecisionCounts {
		if dst.Solver.PrecisionCounts == nil {
			dst.Solver.PrecisionCounts = make(map[string]int64)
		}
		dst.Solver.PrecisionCounts[k] += v
	}
	dst.Solver.PrecisionFallbacks += src.Solver.PrecisionFallbacks
	dst.Cache.Hits += src.Cache.Hits
	dst.Cache.Misses += src.Cache.Misses
	dst.Cache.DiskHits += src.Cache.DiskHits
	dst.Cache.Evictions += src.Cache.Evictions
	dst.Cache.Entries += src.Cache.Entries
	dst.Cache.Bytes += src.Cache.Bytes
	dst.Cache.MaxBytes += src.Cache.MaxBytes
	dst.Cache.BuildTimeMS += src.Cache.BuildTimeMS
	dst.Queue.Depth += src.Queue.Depth
	dst.Queue.Capacity += src.Queue.Capacity
	dst.Queue.Running += src.Queue.Running
	dst.Queue.Retained += src.Queue.Retained
	dst.Queue.Submitted += src.Queue.Submitted
	dst.Queue.Done += src.Queue.Done
	dst.Queue.Failed += src.Queue.Failed
	dst.Queue.Cancelled += src.Queue.Cancelled
	dst.Queue.Expired += src.Queue.Expired
	dst.Queue.ScenariosSolved += src.Queue.ScenariosSolved
	dst.Queue.SolveTimeMS += src.Queue.SolveTimeMS
	dst.Queue.RetainedFieldSamples += src.Queue.RetainedFieldSamples
	dst.Queue.FieldSampleBudget += src.Queue.FieldSampleBudget
	dst.Shards = append(dst.Shards, serveapi.ShardStats{
		Shard:              idx,
		JobsDone:           src.JobsDone,
		JobsFailed:         src.JobsFailed,
		Assemblies:         src.Solver.Assemblies,
		AssemblyHits:       src.Solver.AssemblyHits,
		PrecondBuilds:      src.Solver.PrecondBuilds,
		PrecondHits:        src.Solver.PrecondHits,
		IterativeSolves:    src.Solver.IterativeSolves,
		WarmStarts:         src.Solver.WarmStarts,
		Factorizations:     src.Factorizations,
		FactorHits:         src.FactorHits,
		PrecisionFallbacks: src.Solver.PrecisionFallbacks,
	})
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz: the router is ready when at least one replica is — with
// zero up replicas every forward is doomed, so its own front load balancer
// should stop sending traffic here.
func (p *Proxy) handleReadyz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, rep := range p.replicas {
		if rep.up.Load() {
			up++
		}
	}
	ready := up > 0
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{"ready": ready, "replicasUp": up, "replicas": len(p.replicas)})
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	copyHeader(w, resp)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// streamResponse copies the body with a flush per read, for SSE passthrough.
func streamResponse(w http.ResponseWriter, resp *http.Response) {
	copyHeader(w, resp)
	w.WriteHeader(resp.StatusCode)
	flusher, canFlush := w.(http.Flusher)
	if canFlush {
		flusher.Flush()
	}
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func copyHeader(w http.ResponseWriter, resp *http.Response) {
	for _, k := range []string{"Content-Type", "Cache-Control", "Retry-After", "Connection"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
