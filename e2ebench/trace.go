package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one operation
// share Req; Parent is the index of the enclosing span (-1 for an op root).
type Span struct {
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per boundary.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span // guarded by mu
	// orphans holds, per request, spans recorded before their parent
	// existed (the engine span of a request finishes before the handler
	// span around it); Adopt attaches them.
	orphans map[int64][]int // guarded by mu
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), spans: make([]Span, 0, 1<<14), orphans: make(map[int64][]int)}
}

// AddOrphan records a finished span whose parent is recorded later.
func (t *Tracer) AddOrphan(name string, req int64, start, end time.Time) int {
	i := t.Add(name, req, -1, start, end)
	if i >= 0 {
		t.mu.Lock()
		t.orphans[req] = append(t.orphans[req], i)
		t.mu.Unlock()
	}
	return i
}

// Adopt moves the request's orphan spans whose name starts with prefix
// under parent.
func (t *Tracer) Adopt(req int64, parent int, prefix string) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	keep := t.orphans[req][:0]
	for _, i := range t.orphans[req] {
		if strings.HasPrefix(t.spans[i].Name, prefix) {
			t.spans[i].Parent = parent
		} else {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		delete(t.orphans, req)
	} else {
		t.orphans[req] = keep
	}
}

// Reset forgets every span recorded so far: set-up warm-ups count toward no
// layer.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	clear(t.orphans)
}

// Add records a finished span and returns its index (-1 when not tracing).
func (t *Tracer) Add(name string, req int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Req: req, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// Seq lays derived child spans end to end from start, in order, under
// parent: the API returns phase durations, not timestamps, so the children
// are placed back to back inside the parent's interval.
func (t *Tracer) Seq(req int64, parent int, start time.Time, phases []phase) {
	if t == nil {
		return
	}
	at := start
	for _, ph := range phases {
		if ph.d <= 0 {
			continue
		}
		id := t.Add(ph.name, req, parent, at, at.Add(ph.d))
		if len(ph.children) > 0 {
			t.Seq(req, id, at, ph.children)
		}
		at = at.Add(ph.d)
	}
}

type phase struct {
	name     string
	d        time.Duration
	children []phase
}

// Summary is the trace's layer attribution.
type Summary struct {
	// SelfMS is, per span name, the summed span time not covered by child
	// spans.
	SelfMS map[string]float64
	// Coverage is the share of op-root wall time covered by named child
	// spans.
	Coverage float64
	Spans    int
}

// Summarize computes self time per span name and root coverage.
func (t *Tracer) Summarize() Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	unadopted := make(map[int]bool)
	for _, ids := range t.orphans {
		for _, i := range ids {
			unadopted[i] = true
		}
	}
	out := Summary{SelfMS: make(map[string]float64), Spans: len(t.spans)}
	var rootWall, rootSelf time.Duration
	for i, s := range t.spans {
		self := s.End - s.Start - covered(t.spans, kids[i], s.Start, s.End)
		out.SelfMS[s.Name] += float64(self) / float64(time.Millisecond)
		if s.Parent < 0 && !unadopted[i] {
			rootWall += s.End - s.Start
			rootSelf += self
		}
	}
	if rootWall > 0 {
		out.Coverage = 1 - float64(rootSelf)/float64(rootWall)
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// [lo, hi].
func covered(spans []Span, children []int, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := max(spans[c].Start, lo), min(spans[c].End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// WriteFile dumps the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// recordCost measures what recording one span costs on this host, so the
// traced run can state its own overhead per op.
func recordCost() time.Duration {
	const n = 20000
	t := newTracer()
	now := time.Now()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.Add("probe", int64(i), -1, now, now)
	}
	return time.Since(start) / n
}
