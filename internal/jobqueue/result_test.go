package jobqueue

import (
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"
	"time"

	morestress "repro"
	"repro/internal/array"
	"repro/internal/solver"
)

// keepMeta is a job meta that keeps the sampled field of the scenarios it
// flags, like the HTTP layer's per-scenario includeField.
type keepMeta struct{ Keep []bool }

func (m keepMeta) KeepField(i int) bool { return i < len(m.Keep) && m.Keep[i] }

func init() { gob.Register(keepMeta{}) }

// solveIterative fakes an iterative solve whose JobResult carries the full
// runtime solution: the global vectors, a problem snapshot, and a field
// whose peak is -ΔT.
func solveIterative(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
	return &morestress.JobResult{CacheHit: true, Result: &morestress.ArrayResult{
		VM: &morestress.Field{NX: 2, NY: 1, V: []float64{sc.DeltaT, -sc.DeltaT}},
		Solution: &array.Solution{
			Prob:              &array.Problem{Solver: array.GMRES},
			Q:                 make([]float64, 300),
			QFree:             make([]float64, 200),
			PrecondShared:     true,
			PrecisionFallback: true,
		},
		Stats: morestress.SolverStats{
			Iterations: 7, Residual: 1e-9, Converged: true, Warm: true,
			Precond: solver.PrecondIC0, Ordering: solver.OrderingNatural, Precision: solver.PrecisionFloat32,
		},
		GlobalDoFs: 7,
	}}, nil
}

// TestResultHoldsNoSolution walks the retained Result type: nothing it
// reaches may be the runtime solution graph, and the only float slice it
// reaches is the sampled field's.
func TestResultHoldsNoSolution(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(array.Solution{}):         true,
		reflect.TypeOf(morestress.ArrayResult{}): true,
		reflect.TypeOf(morestress.JobResult{}):   true,
	}
	field := reflect.TypeOf(morestress.Field{})
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type, path string) []string
	walk = func(ty reflect.Type, path string) (bad []string) {
		if seen[ty] {
			return nil
		}
		seen[ty] = true
		switch {
		case banned[ty]:
			return []string{path + " is " + ty.String()}
		case ty == field:
			return nil
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			if ty.Kind() == reflect.Slice && ty.Elem().Kind() == reflect.Float64 {
				return []string{path + " is a float slice outside the field"}
			}
			return walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				bad = append(bad, walk(f.Type, path+"."+f.Name)...)
			}
		case reflect.Interface, reflect.Func, reflect.Chan:
			return []string{path + " can hold anything (" + ty.String() + ")"}
		}
		return bad
	}
	for _, b := range walk(reflect.TypeOf(Result{}), "Result") {
		t.Error(b)
	}
}

// TestResultKeepsFieldOnlyWhenAsked checks a finished scenario keeps its
// field only where the meta asks for it, keeps its peak either way, and
// reports the iterative solve in both the result and its event.
func TestResultKeepsFieldOnlyWhenAsked(t *testing.T) {
	q := newTestQueue(t, Options{Solve: solveIterative})
	id, err := q.Submit([]morestress.Job{scenario(-3), scenario(-5)}, keepMeta{Keep: []bool{true, false}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := waitState(t, q, id, StateDone)
	if len(s.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(s.Results))
	}
	kept, dropped := s.Results[0], s.Results[1]
	if kept.VM == nil || kept.VM.V[1] != 3 {
		t.Errorf("scenario 0 asked for its field and kept %+v", kept.VM)
	}
	if dropped.VM != nil {
		t.Errorf("scenario 1 did not ask for its field and kept %+v", dropped.VM)
	}
	if kept.MaxVonMises != 3 || dropped.MaxVonMises != 5 {
		t.Errorf("MaxVonMises = %g, %g, want 3, 5", kept.MaxVonMises, dropped.MaxVonMises)
	}
	want := Result{
		Index: 1, CacheHit: true, GlobalDoFs: 7, MaxVonMises: 5,
		Iterative: true, PrecondShared: true, PrecisionFallback: true,
		Stats: morestress.SolverStats{
			Iterations: 7, Residual: 1e-9, Converged: true, Warm: true,
			Precond: solver.PrecondIC0, Ordering: solver.OrderingNatural, Precision: solver.PrecisionFloat32,
		},
	}
	if !reflect.DeepEqual(dropped, want) {
		t.Errorf("scenario 1 result\n got %+v\nwant %+v", dropped, want)
	}
	events, _, _ := q.Subscribe(id)
	for ev := range events {
		if ev.Type != EventScenario {
			continue
		}
		if ev.Iterations != 7 || ev.Precond != "ic0" || ev.Precision != "float32" || !ev.WarmStart || !ev.PrecondCached {
			t.Errorf("scenario event %+v lost the solve report", ev)
		}
	}
}

// TestNewResultFailedScenario checks a failed scenario keeps only its error
// and timings.
func TestNewResultFailedScenario(t *testing.T) {
	res, _ := solveIterative(context.Background(), scenario(-1))
	res.Err, res.Total = errors.New("boom"), time.Second
	got := NewResult(res, true)
	if want := (Result{Err: "boom", CacheHit: true, Total: time.Second}); !reflect.DeepEqual(got, want) {
		t.Errorf("NewResult = %+v, want %+v", got, want)
	}
}

// legacyResultWire and legacyScenarioRec are the 'C' record as journals
// written before the compact Result stored it: every sampled field, no
// MaxVonMises, no iterative report.
type legacyResultWire struct {
	Index            int
	Err              string
	CacheHit         bool
	LocalWait, Total time.Duration
	HasResult        bool
	VM               *morestress.Field
	Stats            morestress.SolverStats
	GlobalTime       time.Duration
	GlobalDoFs       int
}

type legacyScenarioRec struct {
	ID     string
	Result legacyResultWire
}

// TestRecoverReadsLegacyResultRecords checks a journal whose 'C' records
// predate the compact Result still restores its finished job: results,
// stats and timings come back, the peak is derived from the journaled
// field, and only the fields the meta asks for are kept.
func TestRecoverReadsLegacyResultRecords(t *testing.T) {
	dir := t.TempDir()
	log1 := openJournal(t, dir)
	now := time.Now()
	stats := morestress.SolverStats{Iterations: 4, Residual: 1e-10, Converged: true}
	recs := []struct {
		kind byte
		v    any
	}{
		{recSubmit, submitRec{
			ID: "legacy", Submitted: now, Cost: 4,
			Scenarios: []jobWire{toJobWire(scenario(3)), toJobWire(scenario(5))},
			Meta:      keepMeta{Keep: []bool{false, true}},
		}},
		{recState, stateRec{ID: "legacy", State: StateRunning, Time: now}},
		{recScenario, legacyScenarioRec{ID: "legacy", Result: legacyResultWire{
			Index: 0, CacheHit: true, Total: time.Millisecond, HasResult: true, Stats: stats, GlobalDoFs: 9,
			VM: &morestress.Field{NX: 2, NY: 1, V: []float64{3, -3}},
		}}},
		{recScenario, legacyScenarioRec{ID: "legacy", Result: legacyResultWire{
			Index: 1, LocalWait: time.Millisecond, HasResult: true, Stats: stats, GlobalDoFs: 9,
			VM: &morestress.Field{NX: 2, NY: 1, V: []float64{5, -5}},
		}}},
		{recState, stateRec{ID: "legacy", State: StateDone, Time: now}},
	}
	for _, r := range recs {
		p, err := encodeRecord(r.kind, r.v)
		if err != nil {
			t.Fatal(err)
		}
		if err := log1.Append(p); err != nil {
			t.Fatal(err)
		}
	}

	q := newTestQueue(t, Options{Journal: openJournal(t, dir), Solve: solveVM})
	if st, err := q.Recover(); err != nil || st.Restored != 1 {
		t.Fatalf("Recover = %+v, %v; want 1 restored", st, err)
	}
	s, ok := q.Get("legacy")
	if !ok || s.State != StateDone || len(s.Results) != 2 {
		t.Fatalf("restored job: ok=%v %+v", ok, s)
	}
	want := []Result{
		{Index: 0, CacheHit: true, Total: time.Millisecond, Stats: stats, GlobalDoFs: 9, MaxVonMises: 3},
		{Index: 1, LocalWait: time.Millisecond, Stats: stats, GlobalDoFs: 9, MaxVonMises: 5,
			VM: &morestress.Field{NX: 2, NY: 1, V: []float64{5, -5}}},
	}
	if !reflect.DeepEqual(s.Results, want) {
		t.Errorf("restored results\n got %+v\nwant %+v", s.Results, want)
	}
}
