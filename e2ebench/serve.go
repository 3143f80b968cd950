package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	morestress "repro"
	"repro/internal/jobqueue"
	"repro/internal/serveapi"
)

// serveRate is the offered load of serve-sweep in arrivals per second:
// about half the capacity measured on the reference host (see
// e2ebench/RECORD.json), so the open loop runs without a growing backlog.
// The --rate flag overrides it to re-measure capacity.
var serveRate = 20.0

// serveClients bounds the client's concurrency: at most this many
// goroutines and connections.
const serveClients = 2

// serveGrace is how long past the schedule the client keeps draining
// arrivals before it counts the rest as failed.
const serveGrace = 10 * time.Second

// reqHeader carries the op id from the client to the handler wrapper.
const reqHeader = "X-Bench-Req"

// loadRegistry maps each scenario's ΔT (unique per generated scenario) to
// the op that sent it, so the engine decorator can join its span to the
// op's other spans.
type loadRegistry struct {
	mu sync.Mutex
	m  map[uint64]int64 // guarded by mu
}

func (r *loadRegistry) put(dt float64, req int64) {
	r.mu.Lock()
	r.m[math.Float64bits(dt)] = req
	r.mu.Unlock()
}

func (r *loadRegistry) reqOf(job morestress.Job) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if req, ok := r.m[math.Float64bits(job.DeltaT)]; ok {
		return req
	}
	return -1
}

// handlerRec is one /solve request as the handler wrapper saw it.
type handlerRec struct {
	d     time.Duration
	bytes int
}

// server is the in-process serving stack of serve-sweep: one engine behind
// the decorator, the job queue, serveapi's routes wrapped by the
// benchmark's handler timer, on a loopback listener.
type server struct {
	dec   *tracedSolver
	queue *jobqueue.Queue
	api   *serveapi.Server
	http  *http.Server
	url   string
	tr    *Tracer
	done  chan struct{} // closed when Serve returns

	mu       sync.Mutex
	handlers map[int64]handlerRec // guarded by mu; /solve requests by op id
}

func startServer(tr *Tracer, reg *loadRegistry) (*server, error) {
	dec := &tracedSolver{inner: morestress.NewEngine(morestress.EngineOptions{}), tr: tr, reqOf: reg.reqOf}
	q, err := serveapi.NewQueue(dec, 64, 1, 10*time.Minute, serveapi.DefaultJobFieldBudget, nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		q.Close()
		return nil, err
	}
	s := &server{
		dec: dec, queue: q, api: serveapi.New(dec, q), tr: tr,
		url: "http://" + ln.Addr().String(), done: make(chan struct{}),
		handlers: make(map[int64]handlerRec),
	}
	s.http = &http.Server{Handler: s.wrap(s.api.Routes())}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // always ErrServerClosed after stop
	}()
	return s, nil
}

// stop shuts the server down and waits for it and the queue to finish.
func (s *server) stop() {
	s.api.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timeout only means a stream outlived the deadline
	<-s.done
	s.queue.Close()
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// wrap times the POST handlers: /solve spans adopt the engine span of the
// same op; /jobs submissions are recorded as their op's submit span.
func (s *server) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		t1 := time.Now()
		switch r.URL.Path {
		case "/solve":
			id := s.tr.AddOrphan("serveapi.solve", req, t0, t1)
			s.tr.Adopt(req, id, "engine.")
			s.mu.Lock()
			s.handlers[req] = handlerRec{d: t1.Sub(t0), bytes: cw.n}
			s.mu.Unlock()
		case "/jobs":
			s.tr.AddOrphan("serveapi.submit", req, t0, t1)
		}
	})
}

// clientRec is one op as the client saw it.
type clientRec struct {
	k              int
	due, sent, end time.Time
	headers        time.Time // /solve response headers received
	err            error
	rejected       bool
	jobID          string
	maxVM          []float64 // per scenario, for verification
}

type client struct {
	url  string
	http *http.Client
}

func (c *client) post(path string, k int, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.Itoa(k))
	return c.http.Do(req)
}

// solve sends one /solve and checks the field it returns, if any. It
// records when the response headers arrived: decoding the body is the
// client's own work.
func (c *client) solve(k int, op serveOp, rec *clientRec) (maxVM float64, err error) {
	resp, err := c.post("/solve", k, op.Body())
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	rec.headers = time.Now()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("/solve: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var jr serveapi.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return 0, fmt.Errorf("/solve: decode: %w", err)
	}
	if op.IncludeField {
		f := jr.Field
		if f == nil || f.NX != serveDim*serveGridSamples || f.NY != serveDim*serveGridSamples || len(f.V) != f.NX*f.NY {
			return 0, errors.New("/solve: field missing or misshapen")
		}
		m := math.Inf(-1)
		for _, v := range f.V {
			m = math.Max(m, v)
		}
		if m != jr.MaxVonMises { //stressvet:allow floatcmp -- the field and its max come from the same samples
			return 0, fmt.Errorf("/solve: field max %g differs from maxVonMises %g", m, jr.MaxVonMises)
		}
	}
	return jr.MaxVonMises, nil
}

var errRejected = errors.New("rejected with 429")

// job submits one sweep, follows its SSE stream to the terminal event
// (recorded as rec.end), then fetches the results for verification.
func (c *client) job(k int, op serveOp, rec *clientRec) error {
	resp, err := c.post("/jobs", k, op.Body())
	if err != nil {
		return err
	}
	var sub serveapi.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		rec.rejected = true
		return errRejected
	case resp.StatusCode != http.StatusAccepted:
		return fmt.Errorf("/jobs: %s", resp.Status)
	case err != nil:
		return fmt.Errorf("/jobs: decode: %w", err)
	}
	rec.jobID = sub.ID
	state, err := c.follow(sub.Events)
	rec.end = time.Now()
	if err != nil {
		return err
	}
	if state != string(jobqueue.StateDone) {
		return fmt.Errorf("job %s ended %s", sub.ID, state)
	}
	r, err := c.http.Get(c.url + sub.Poll)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	var st serveapi.JobStatusResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		return fmt.Errorf("job %s: decode: %w", sub.ID, err)
	}
	if len(st.Results) != len(op.DeltaTs) {
		return fmt.Errorf("job %s: %d results for %d scenarios", sub.ID, len(st.Results), len(op.DeltaTs))
	}
	for _, jr := range st.Results {
		if jr.Error != "" {
			return fmt.Errorf("job %s: %s", sub.ID, jr.Error)
		}
		rec.maxVM = append(rec.maxVM, jr.MaxVonMises)
	}
	return nil
}

// follow reads an SSE stream until a terminal state event.
func (c *client) follow(path string) (string, error) {
	resp, err := c.http.Get(c.url + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev jobqueue.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("event: %w", err)
		}
		if ev.Type == jobqueue.EventState && ev.State.Terminal() {
			return string(ev.State), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("event stream ended before a terminal state")
}

// warmUp solves every key once with a uniform load and runs one sweep, so
// the ROMs, assemblies, preconditioners and warm-start seeds are cached.
func (c *client) warmUp() error {
	for key := 0; key < serveKeys; key++ {
		if _, err := c.solve(-1, serveOp{Key: key, DeltaTs: []float64{-250}}, &clientRec{}); err != nil {
			return err
		}
	}
	sweep := serveOp{Jobs: true, DeltaTs: []float64{-250, -240, -230, -220}}
	return c.job(-1, sweep, &clientRec{})
}

// runServeSweep is warm field serving over HTTP: an open-loop client at
// serveRate against the in-process single-engine server, in the serveMix
// of /solve requests with field sampling and /jobs sweeps followed over
// SSE. Uniform loads hit the warm-start seed, so the work is field
// reconstruction, encoding, and queueing.
func runServeSweep(seed int64, dur time.Duration, tr *Tracer) (*outcome, error) {
	out := &outcome{minSamples: 100}
	reg := &loadRegistry{m: make(map[uint64]int64)}
	transport := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	defer transport.CloseIdleConnections()
	var srv *server
	var c *client
	var setupRecs []solveRec
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		if err := startTuning(); err != nil {
			return nil, err
		}
		var err error
		if srv, err = startServer(tr, reg); err != nil {
			return nil, fmt.Errorf("serve-sweep set-up: %w", err)
		}
		c = &client{url: srv.url, http: &http.Client{Transport: transport}}
		if err := c.warmUp(); err != nil {
			srv.stop()
			return nil, fmt.Errorf("serve-sweep warm-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0))
		setupRecs = srv.dec.take()
		transport.CloseIdleConnections()
	}
	defer srv.stop()
	tr.Reset()

	ops := serveOps(seed, serveRate, dur)
	for k, op := range ops {
		for _, dt := range op.DeltaTs {
			reg.put(dt, int64(k))
		}
	}
	recs := make([]clientRec, len(ops))
	st0, m0 := srv.dec.Stats(), readMem()
	start := time.Now()
	cutoff := start.Add(dur + serveGrace)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ops) {
					return
				}
				rec := &recs[k]
				rec.k, rec.due = k, start.Add(ops[k].Due)
				if time.Now().After(cutoff) {
					rec.err = errors.New("not sent: schedule overran the grace period")
					continue
				}
				time.Sleep(time.Until(rec.due))
				rec.sent = time.Now()
				if ops[k].Jobs {
					rec.err = c.job(k, ops[k], rec)
				} else {
					var vm float64
					vm, rec.err = c.solve(k, ops[k], rec)
					rec.end = time.Now()
					rec.maxVM = []float64{vm}
				}
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	m1 := readMem()
	out.layers = engineLayers(setupRecs, srv.dec.take(), diffStats(st0, srv.dec.Stats()), m0, m1)
	out.measureMemory()

	if err := srv.collect(out, ops, recs); err != nil {
		return nil, err
	}
	probe, err := serveJob(serveOp{Key: 0})
	if err != nil {
		return nil, err
	}
	out.probeJob = probe
	return out, nil
}

// serveJob is the engine job a scenario of op at −250 °C translates to,
// through the same request translation the server applies.
func serveJob(op serveOp) (morestress.Job, error) {
	req := op.request(-250)
	return req.ToJob(morestress.PrecondAuto, morestress.OrderingAuto)
}

// collect turns the client records into latencies, per-layer figures,
// spans, and verified scenario counts. The references are direct solves on
// a separate engine at −250 °C, one per unit cell and request shape (/solve
// and sweep scenarios sample the field on different grids).
func (s *server) collect(out *outcome, ops []serveOp, recs []clientRec) error {
	ref := morestress.NewEngine(morestress.EngineOptions{})
	type shape struct {
		key  int
		jobs bool
	}
	refVM := make(map[shape]float64)
	for key := 0; key < serveKeys; key++ {
		for _, jobs := range []bool{false, true} {
			op := serveOp{Key: key, Jobs: jobs}
			job, err := serveJob(op)
			if err != nil {
				return err
			}
			job.Solver = morestress.SolveDirect
			res, err := ref.Solve(job)
			if err != nil {
				return fmt.Errorf("reference for unit cell %d: %w", key, err)
			}
			refVM[shape{key, jobs}] = res.Result.VM.Max()
		}
	}
	var handler, codec, kb, wait, run, jobDone []float64
	rejected := 0
	for i := range recs {
		rec, op := &recs[i], ops[i]
		out.attempted++
		if rec.err != nil {
			out.failed++
			if rec.rejected {
				rejected++
			}
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", rec.k, rec.err)
			continue
		}
		out.late = append(out.late, ms(rec.sent.Sub(rec.due)))
		req := int64(rec.k)
		if op.Jobs {
			jobDone = append(jobDone, ms(rec.end.Sub(rec.due)))
			root := s.tr.Add("client.job", req, -1, rec.due, rec.end)
			s.tr.Add("client.late", req, root, rec.due, rec.sent)
			if snap, ok := s.queue.Get(rec.jobID); ok {
				wait = append(wait, ms(snap.Wait))
				run = append(run, ms(snap.Run))
				s.tr.Add("jobqueue.wait", req, root, snap.Submitted, snap.Started)
				runID := s.tr.Add("jobqueue.run", req, root, snap.Started, snap.Finished)
				s.tr.Adopt(req, runID, "engine.")
			}
			s.tr.Adopt(req, root, "")
		} else {
			out.latencies = append(out.latencies, ms(rec.end.Sub(rec.due)))
			root := s.tr.Add("client.solve", req, -1, rec.due, rec.end)
			s.tr.Add("client.late", req, root, rec.due, rec.sent)
			s.tr.Add("client.decode", req, root, rec.headers, rec.end)
			s.tr.Adopt(req, root, "")
			s.mu.Lock()
			h, ok := s.handlers[req]
			s.mu.Unlock()
			if ok {
				handler = append(handler, ms(h.d))
				kb = append(kb, float64(h.bytes)/1024)
				out.transport = append(out.transport, ms(rec.headers.Sub(rec.sent)-h.d))
				if ew, ok := s.dec.wallOf(req); ok {
					codec = append(codec, ms(h.d-ew))
				}
			}
		}
		var bad error
		for j, dt := range op.DeltaTs {
			if err := checkVM(rec.maxVM[j], refVM[shape{op.Key, op.Jobs}], -250, dt); err != nil {
				bad = err
			}
		}
		if out.verify(rec.k, bad) {
			out.scenarios += len(op.DeltaTs)
		}
	}
	l := out.layers
	l["jobqueue.rejected"] = float64(rejected)
	l["jobqueue.wait_ms_p50"] = median(wait)
	l["jobqueue.run_ms_p50"] = median(run)
	l["jobqueue.job_done_ms_p50"] = median(jobDone)
	l["serveapi.handler_ms_p50"] = median(handler)
	l["serveapi.codec_ms_p50"] = median(codec)
	l["serveapi.response_kb_p50"] = median(kb)
	for name, xs := range map[string][]float64{
		"jobqueue.wait_ms_tail": wait, "jobqueue.job_done_ms_tail": jobDone, "serveapi.handler_ms_tail": handler,
	} {
		if q, err := Tail(xs); err == nil {
			l[name] = q.Value
		}
	}
	return nil
}
