package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameOps(t *testing.T) {
	h1, h2 := hotspotOps(7, 64), hotspotOps(7, 64)
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("hotspot ops differ for the same seed")
	}
	for i := range h1 {
		for r := 0; r < hotspotDim; r++ {
			for c := 0; c < hotspotDim; c++ {
				if a, b := h1[i].DeltaT(r, c), h2[i].DeltaT(r, c); a != b {
					t.Fatalf("op %d: ΔT(%d,%d) %v vs %v", i, r, c, a, b)
				}
			}
		}
	}
	if reflect.DeepEqual(h1, hotspotOps(8, 64)) {
		t.Error("hotspot ops do not depend on the seed")
	}

	d1, d2 := designOps(7, 23), designOps(7, 23)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("design ops differ for the same seed")
	}
	if reflect.DeepEqual(d1, designOps(8, 23)) {
		t.Error("design ops do not depend on the seed")
	}
	for _, d := range d1 {
		if d.Rows < 4 || d.Rows > 8 || d.Cols < 4 || d.Cols > 8 || d.Pitch < 10 || d.Pitch >= 20 {
			t.Errorf("design %+v outside the drawn ranges", d)
		}
	}

	s1, s2 := serveOps(7, 20, 5*time.Second), serveOps(7, 20, 5*time.Second)
	if len(s1) != 100 || len(s1) != len(s2) {
		t.Fatalf("got %d and %d arrivals, want 100", len(s1), len(s2))
	}
	jobs := 0
	for i := range s1 {
		if s1[i].Due != s2[i].Due || !bytes.Equal(s1[i].Body(), s2[i].Body()) {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
		if s1[i].Jobs {
			jobs++
		}
	}
	if jobs == 0 || jobs == len(s1) {
		t.Errorf("%d of %d arrivals are sweeps, want a mix", jobs, len(s1))
	}
	if reflect.DeepEqual(s1, serveOps(8, 20, 5*time.Second)) {
		t.Error("serve ops do not depend on the seed")
	}
}

func TestVerifierRejectsPerturbedSolution(t *testing.T) {
	ref := make([]float64, 1000)
	for i := range ref {
		ref[i] = math.Sin(float64(i))
	}
	got := append([]float64(nil), ref...)
	if err := checkQ(got, ref); err != nil {
		t.Fatalf("identical solution rejected: %v", err)
	}
	got[17] += 1e-4 // relative L2 ≈ 4.5e-6
	if err := checkQ(got, ref); err == nil {
		t.Error("perturbed solution accepted")
	}
	if err := checkQ(got[:999], ref); err == nil {
		t.Error("truncated solution accepted")
	}

	if err := checkVM(200, 100, -250, -500); err != nil {
		t.Errorf("exactly scaled maxVonMises rejected: %v", err)
	}
	if err := checkVM(200*(1+1e-5), 100, -250, -500); err == nil {
		t.Error("perturbed maxVonMises accepted")
	}
}

func TestPercentileCountsAndRefuses(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := Percentile(xs, 90); err == nil {
		t.Error("p90 of 99 samples (9.9 beyond) accepted")
	}
	q, err := Percentile(xs, 50)
	if err != nil || q.N != 99 || q.Value != 50 {
		t.Errorf("p50 of 1..99 = %+v, %v; want value 50 over 99 samples", q, err)
	}
	xs = append(xs, 100)
	q, err = Percentile(xs, 90)
	if err != nil || q.N != 100 || q.Value != 90 {
		t.Errorf("p90 of 1..100 = %+v, %v; want value 90 over 100 samples", q, err)
	}
	if _, err := Percentile(xs[:19], 50); err == nil {
		t.Error("median of 19 samples accepted")
	}
	for minN, want := range map[int]float64{20: 50, 39: 50, 40: 75, 100: 90, 999: 90, 1000: 99} {
		if got := TailRung(minN); got != want {
			t.Errorf("TailRung(%d) = %g, want %g", minN, got, want)
		}
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add("client.op", 1, -1, at(0), at(100))
	eng := tr.AddOrphan("engine.solve", 1, at(5), at(95))
	tr.Seq(1, eng, at(5), []phase{{name: "solver.solve", d: 60 * time.Millisecond}, {name: "rom.field", d: 20 * time.Millisecond}})
	tr.Adopt(1, root, "engine.")
	s := tr.Summarize()
	for name, want := range map[string]float64{"client.op": 10, "engine.solve": 10, "solver.solve": 60, "rom.field": 20} {
		if got := s.SelfMS[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self time of %s = %g ms, want %g", name, got, want)
		}
	}
	if math.Abs(s.Coverage-0.9) > 1e-9 {
		t.Errorf("coverage %g, want 0.9", s.Coverage)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in the code and in
// BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
}
