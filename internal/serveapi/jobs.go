package serveapi

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	morestress "repro"
	"repro/internal/jobqueue"
	"repro/internal/wal"
)

// jobMeta is the per-job metadata the HTTP layer stores in the queue: the
// response-shaping flags of the original request. The fields are exported
// because the queue journals meta through gob when -journal-dir is set.
type jobMeta struct {
	IncludeField []bool // per scenario
}

// KeepField tells the queue which scenarios keep their sampled field: those
// whose request set includeField. Every other field is dropped when its
// scenario finishes; its peak survives as the result's MaxVonMises.
func (m *jobMeta) KeepField(i int) bool {
	return m != nil && i < len(m.IncludeField) && m.IncludeField[i]
}

func init() {
	// Meta rides the job journal as a gob interface value.
	gob.Register(&jobMeta{})
}

// SubmitResponse is the POST /jobs payload: the ID to poll, immediately.
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// QueueDepth is the number of jobs still queued when the response was
	// built (0 when a worker claimed this one immediately) — a backlog
	// hint for the client.
	QueueDepth int `json:"queueDepth"`
	// Poll and Events are the URLs of the job's polling and SSE endpoints.
	Poll   string `json:"poll"`
	Events string `json:"events"`
}

// JobStatusResponse is the GET /jobs/{id} payload.
type JobStatusResponse struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Total     int     `json:"total"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	WaitMS    float64 `json:"waitMs"`
	RunMS     float64 `json:"runMs"`
	// SubmittedAt/StartedAt/FinishedAt are RFC 3339 timestamps; empty
	// until the lifecycle reaches them.
	SubmittedAt string `json:"submittedAt"`
	StartedAt   string `json:"startedAt,omitempty"`
	FinishedAt  string `json:"finishedAt,omitempty"`
	Error       string `json:"error,omitempty"`
	// Results carries per-scenario outcomes once the job is terminal
	// (partial up to the cancellation point for cancelled jobs).
	Results []JobResponse `json:"results,omitempty"`
}

// handleJobSubmit accepts the same payload as /batch but returns an ID
// immediately; the solve proceeds in the queue. A full queue or an
// exhausted retained-result budget → 429.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	jobs, include, samples, ok := s.decodeBatch(w, r)
	if !ok {
		return
	}
	// The job's cost against the queue budget is the field samples it
	// holds — the dominant memory term of a result retained for the TTL:
	// every includeField scenario's for the job's lifetime, plus, while it
	// runs, the largest field it computes and then drops. A job bigger
	// than the whole budget can never be admitted, so reject it as
	// permanently oversized rather than retryably throttled.
	var kept, transient int64
	for i, n := range samples {
		if include[i] {
			kept += n
		} else {
			transient = max(transient, n)
		}
	}
	if limit := s.queue.Stats().MaxCost; limit > 0 && kept+transient > limit {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("job fields would hold %d samples, above this server's %d-sample budget; shrink gridSamples or split the job", kept+transient, limit))
		return
	}
	id, err := s.queue.Submit(jobs, &jobMeta{IncludeField: include}, kept, transient)
	switch {
	case errors.Is(err, jobqueue.ErrQueueFull):
		// The backlog drains on the solve timescale.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobqueue.ErrOverloaded):
		// Budget frees when retained results expire — a TTL timescale.
		w.Header().Set("Retry-After", "60")
		httpError(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:         id,
		State:      string(jobqueue.StatePending),
		QueueDepth: s.queue.Stats().Depth,
		Poll:       "/jobs/" + id,
		Events:     "/jobs/" + id + "/events",
	})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	snap, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such job (unknown ID, or result expired)"))
		return
	}
	writeJSON(w, http.StatusOK, toJobStatus(snap))
}

func toJobStatus(snap jobqueue.Snapshot) JobStatusResponse {
	out := JobStatusResponse{
		ID:          snap.ID,
		State:       string(snap.State),
		Total:       snap.Total,
		Completed:   snap.Completed,
		Failed:      snap.Failed,
		WaitMS:      float64(snap.Wait) / float64(time.Millisecond),
		RunMS:       float64(snap.Run) / float64(time.Millisecond),
		SubmittedAt: snap.Submitted.Format(time.RFC3339Nano),
		Error:       snap.Err,
	}
	if !snap.Started.IsZero() {
		out.StartedAt = snap.Started.Format(time.RFC3339Nano)
	}
	if !snap.Finished.IsZero() {
		out.FinishedAt = snap.Finished.Format(time.RFC3339Nano)
	}
	if snap.State.Terminal() && len(snap.Results) > 0 {
		out.Results = make([]JobResponse, len(snap.Results))
		for i, res := range snap.Results {
			out.Results[i] = toResponse(res)
		}
	}
	return out
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id := r.PathValue("id")
	err := s.queue.Cancel(id)
	switch {
	case errors.Is(err, jobqueue.ErrNotFound):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, jobqueue.ErrFinished):
		httpError(w, http.StatusConflict, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "cancelling"})
	}
}

// handleJobEvents streams the job's lifecycle as Server-Sent Events: the
// history so far is replayed first, then transitions arrive live. Event
// names are the jobqueue event types ("state", "scenario"); each data line
// is the event JSON. The stream ends after the terminal state event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	events, stop, ok := s.queue.Subscribe(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such job (unknown ID, or result expired)"))
		return
	}
	defer stop()
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if canFlush {
		flusher.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			// Server shutting down: end the stream now instead of making
			// httpSrv.Shutdown wait out its whole deadline on us.
			return
		case ev, open := <-events:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		}
	}
}

// decodeBatch parses and validates a batch-shaped request body ({"jobs":
// [...]}), shared by POST /batch and POST /jobs, and caps the field samples
// summed over every scenario (a /batch response holds them all at once).
// It returns the translated scenarios and each one's includeField flag and
// field sample count; ok is false when the response has already been
// written.
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request) ([]morestress.Job, []bool, []int64, bool) {
	var req BatchRequest
	if !decodeJSON(w, r, &req) {
		return nil, nil, nil, false
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("batch has no jobs"))
		return nil, nil, nil, false
	}
	if len(req.Jobs) > maxBatchJobs {
		httpError(w, http.StatusBadRequest, fmt.Errorf("batch exceeds %d jobs", maxBatchJobs))
		return nil, nil, nil, false
	}
	jobs := make([]morestress.Job, len(req.Jobs))
	include := make([]bool, len(req.Jobs))
	samples := make([]int64, len(req.Jobs))
	var batchSamples int64
	for i := range req.Jobs {
		job, err := req.Jobs[i].ToJob(morestress.PrecondAuto, morestress.OrderingAuto)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("job %d: %w", i, err))
			return nil, nil, nil, false
		}
		jobs[i] = job
		include[i] = req.Jobs[i].IncludeField
		samples[i] = req.Jobs[i].fieldSamples()
		batchSamples += samples[i]
	}
	if batchSamples > maxBatchFieldSamples {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("batch fields would hold %d samples; the sum of rows·cols·gridSamples² must not exceed %d", batchSamples, maxBatchFieldSamples))
		return nil, nil, nil, false
	}
	return jobs, include, samples, true
}

// DefaultJobFieldBudget bounds the field samples summed over every tracked
// async job — queued, running, and finished-but-retained for the TTL. The
// synchronous path caps one /batch response at maxBatchFieldSamples because
// all its fields are in memory at once; the async path retains results
// after completion, so without this aggregate bound a client could park
// many at-cap results in the TTL window and exhaust memory. A finished
// scenario keeps only its compact jobqueue.Result, whose one
// request-sized term is the field, kept only where includeField was set. A
// job is charged those kept fields until it expires, plus, until it
// finishes, its largest dropped field — scenarios run one at a time, so
// that covers the one field being computed. Four full-size batches ≈ 1 GiB
// of float64 samples.
const DefaultJobFieldBudget = 4 * maxBatchFieldSamples

// NewQueue wires a jobqueue over the engine: scenarios run one at a time
// per queue worker through Engine.Solve (which parallelizes internally and
// shares the ROM and assembly caches with the synchronous endpoints).
// Cancellation takes effect at scenario boundaries. Each finished scenario
// is kept as a compact jobqueue.Result: no solution vectors, and a field
// only where the request set includeField. fieldBudget bounds the
// aggregate field samples of tracked jobs, and so what they retain (0 =
// unlimited). journal, when non-nil, makes accepted jobs durable across
// restarts.
func NewQueue(e morestress.Solver, depth, workers int, ttl time.Duration, fieldBudget int64, journal *wal.Log) (*jobqueue.Queue, error) {
	return jobqueue.New(jobqueue.Options{
		Depth:   depth,
		Workers: workers,
		TTL:     ttl,
		MaxCost: fieldBudget,
		Journal: journal,
		Solve: func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res, _ := e.Solve(sc)
			return res, nil
		},
	})
}
