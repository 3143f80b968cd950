// Command e2ebench is the repository's end-to-end benchmark. It drives the
// public entry points the way cmd/serve does — tuning.Startup first, then
// morestress.NewEngine, Engine.Solve, and serveapi over a job queue — on
// three seeded workloads, each built so one group of layers does most of the
// work:
//
//	hotspot      Krylov-bound steady state (warm 12×12 lattice, per-block ΔT)
//	new-design   cold design exploration (every cache misses on every op)
//	serve-sweep  warm field serving over HTTP (open loop, uniform ΔT)
//
// Usage, from the repository root:
//
//	sh e2ebench/run.sh --workload hotspot --seed 1 --seconds 25 --trace 0
//
// The last line on stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics of
// a separate traced run with --trace 1. Human-readable figures go to stderr.
// Outputs are checked against direct solves after the timed phase.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	morestress "repro"
	"repro/internal/solver/tuning"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by untraced
// runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"scenarios_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer are the single-layer figures, reported by traced runs. Layers a
// workload does not exercise report 0.
var perLayer = []metricDef{
	{"rom.build_ms", "ms"},
	{"rom.builds_per_op", "count"},
	{"rom.field_ms_per_scenario", "ms"},
	{"rom.field_samples_per_s", "1/s"},
	{"array.assembly_build_ms", "ms"},
	{"array.assembly_buildtime_ms", "ms"},
	{"array.rhs_ms_per_scenario", "ms"},
	{"array.solve_ms_per_scenario", "ms"},
	{"array.assembly_hit_ratio", "ratio"},
	{"array.free_dofs", "count"},
	{"solver.iterations_per_scenario", "count"},
	{"solver.precond_apply_ms_per_scenario", "ms"},
	{"solver.krylov_other_ms_per_scenario", "ms"},
	{"solver.precond_build_ms", "ms"},
	{"solver.warm_start_ratio", "ratio"},
	{"solver.refinements", "count"},
	{"solver.precision_fallbacks", "count"},
	{"sparse.matvec_us", "us"},
	{"sparse.precond_apply_us", "us"},
	{"sparse.nnz", "count"},
	{"sparse.tiles", "count"},
	{"sparse.matvec_bytes_computed", "bytes"},
	{"sparse.matvec_gbps_computed", "GB/s"},
	{"engine.slot_wait_ms", "ms"},
	{"engine.rom_wait_ms", "ms"},
	{"engine.alloc_mb_per_scenario", "MB"},
	{"engine.allocs_per_scenario", "count"},
	{"romcache.hit_ratio", "ratio"},
	{"jobqueue.wait_ms_p50", "ms"},
	{"jobqueue.wait_ms_tail", "ms"},
	{"jobqueue.run_ms_p50", "ms"},
	{"jobqueue.rejected", "count"},
	{"jobqueue.job_done_ms_p50", "ms"},
	{"jobqueue.job_done_ms_tail", "ms"},
	{"serveapi.handler_ms_p50", "ms"},
	{"serveapi.handler_ms_tail", "ms"},
	{"serveapi.codec_ms_p50", "ms"},
	{"serveapi.response_kb_p50", "kB"},
	{"client.transport_ms_p50", "ms"},
	{"client.late_ms_tail", "ms"},
	{"client.latency_samples", "count"},
	{"client.tail_percentile", "pct"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.gc_cycles", "count"},
	{"verify.ops", "count"},
	{"verify.mismatches", "count"},
	{"self.client_ms_per_op", "ms"},
	{"self.serveapi_ms_per_op", "ms"},
	{"self.jobqueue_ms_per_op", "ms"},
	{"self.engine_ms_per_op", "ms"},
	{"self.rom_ms_per_op", "ms"},
	{"self.array_ms_per_op", "ms"},
	{"self.solver_ms_per_op", "ms"},
	{"trace.coverage_pct", "pct"},
	{"trace.spans", "count"},
	{"trace.overhead_us_per_op", "us"},
	{"trace.latency_p50_ms", "ms"},
	{"isolation.holds", "bool"},
}

// layerGroups are the span-name prefixes self time is summed over.
var layerGroups = []string{"client", "serveapi", "jobqueue", "engine", "rom", "array", "solver"}

// outcome is what a workload run measured.
type outcome struct {
	setup      []time.Duration // one per set-up repetition
	elapsed    time.Duration   // timed phase
	latencies  []float64       // ms, per successful op
	late       []float64       // ms, generator lateness per op
	transport  []float64       // ms, per op, client time outside the program's own spans
	done       []int           // ids of successful ops
	scenarios  int             // completed, verified scenarios
	attempted  int
	failed     int
	verified   int
	mismatches int
	peakRSSMB  float64
	liveHeapMB float64
	layers     map[string]float64
	probeJob   morestress.Job // the lattice the kernel probe rebuilds
	// minSamples is the latency sample count the workload guarantees at
	// the benchmark's run length; it fixes the tail percentile.
	minSamples int
}

// verify records one output check; a mismatch counts as a failed op.
func (o *outcome) verify(k int, err error) bool {
	o.verified++
	if err != nil {
		o.mismatches++
		o.failed++
		fmt.Fprintf(os.Stderr, "op %d: verification failed: %v\n", k, err)
		return false
	}
	return true
}

// measureMemory records the process's peak RSS and the heap still live
// after a collection: the caches' footprint at the end of the timed phase.
func (o *outcome) measureMemory() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	o.liveHeapMB = float64(m.HeapAlloc) / (1 << 20)
	o.peakRSSMB = peakRSSMB()
}

// peakRSSMB reads VmHWM from /proc/self/status (0 where unavailable).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// startTuning applies the measured solver thresholds as cmd/serve does at
// boot (embedded snapshot).
func startTuning() error {
	if _, err := tuning.Startup(""); err != nil {
		return fmt.Errorf("tuning: %w", err)
	}
	return nil
}

var workloads = map[string]func(seed int64, dur time.Duration, tr *Tracer) (*outcome, error){
	"hotspot":     runHotspot,
	"new-design":  runNewDesign,
	"serve-sweep": runServeSweep,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "hotspot, new-design, or serve-sweep")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 25, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Float64Var(&serveRate, "rate", serveRate, "serve-sweep arrivals per second (raise it to measure capacity)")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload hotspot|new-design|serve-sweep --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	var tr *Tracer
	if *trace == 1 {
		tr = newTracer()
	}
	out, err := run(*seed, time.Duration(*seconds)*time.Second, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := report(*name, *seed, out, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *name, err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// report turns an outcome into the result line and logs every figure.
func report(name string, seed int64, out *outcome, tr *Tracer) (*result, error) {
	if len(out.latencies) == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	p50, err := Percentile(out.latencies, 50)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	tail, err := Percentile(out.latencies, TailRung(out.minSamples))
	if err != nil {
		return nil, fmt.Errorf("latency tail: %w", err)
	}
	setup := make([]float64, len(out.setup))
	for i, d := range out.setup {
		setup[i] = d.Seconds()
	}
	e2e := map[string]float64{
		"setup_s":         median(setup),
		"scenarios_per_s": float64(out.scenarios) / out.elapsed.Seconds(),
		"latency_p50_ms":  p50.Value,
		"latency_tail_ms": tail.Value,
		"peak_rss_mb":     out.peakRSSMB,
		"live_heap_mb":    out.liveHeapMB,
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops attempted, %d failed, %d verified (%d mismatches), error_rate %.4f; latency p50 over %d samples, tail is p%g\n",
		name, seed, out.attempted, out.failed, out.verified, out.mismatches,
		float64(out.failed)/float64(max(out.attempted, 1)), p50.N, tail.P)

	layers := out.layers
	layers["verify.ops"] = float64(out.verified)
	layers["verify.mismatches"] = float64(out.mismatches)
	layers["client.latency_samples"] = float64(tail.N)
	layers["client.tail_percentile"] = tail.P
	layers["client.transport_ms_p50"] = median(out.transport)
	if q, err := Tail(out.late); err == nil {
		layers["client.late_ms_tail"] = q.Value
	}
	defs, vals := endToEnd, e2e
	if tr != nil {
		if err := traceLayers(name, seed, out, tr, p50.Value, layers); err != nil {
			return nil, err
		}
		defs, vals = perLayer, layers
	}
	res := &result{
		Correct:   out.failed == 0 && out.verified > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	logMetrics(e2e, endToEnd)
	logMetrics(layers, perLayer)
	return res, nil
}

// traceLayers adds the figures only a traced run has: the kernel probe,
// self time per layer, span coverage and tracing overhead, and the
// layer-isolation verdict. The spans are written under .bench_build/trace.
func traceLayers(name string, seed int64, out *outcome, tr *Tracer, p50 float64, layers map[string]float64) error {
	sum := tr.Summarize()
	probe, err := kernelProbe(out.probeJob)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	for k, v := range probe {
		layers[k] = v
	}
	ops := float64(max(out.attempted-out.failed, 1))
	group := make(map[string]float64)
	for span, self := range sum.SelfMS {
		g, _, _ := strings.Cut(span, ".")
		group[g] += self
	}
	for _, g := range layerGroups {
		layers["self."+g+"_ms_per_op"] = group[g] / ops
	}
	layers["trace.coverage_pct"] = 100 * sum.Coverage
	layers["trace.spans"] = float64(sum.Spans)
	layers["trace.overhead_us_per_op"] = float64(recordCost()) / float64(time.Microsecond) * float64(sum.Spans) / ops
	layers["trace.latency_p50_ms"] = p50
	layers["isolation.holds"] = 0
	if isolationHolds(name, group, sum.SelfMS, layers) {
		layers["isolation.holds"] = 1
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := tr.WriteFile(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans written to %s; self time per layer (ms):\n", path)
	names := make([]string, 0, len(sum.SelfMS))
	for n := range sum.SelfMS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %12.3f\n", n, sum.SelfMS[n])
	}
	return nil
}

// isolationHolds checks the recorded layer-isolation prediction against the
// trace: on hotspot the solver dominates and field reconstruction is ~0; on
// new-design ROM build, assembly and preconditioner build dominate; on
// serve-sweep the Krylov solver runs ~0 iterations and field reconstruction
// plus the serving layer dominate the server side.
func isolationHolds(name string, group, self map[string]float64, layers map[string]float64) bool {
	var wall float64
	for _, g := range layerGroups {
		wall += group[g]
	}
	if wall == 0 {
		return false
	}
	switch name {
	case "hotspot":
		return group["solver"] > 0.5*wall && self["rom.field"] < 0.01*wall
	case "new-design":
		cold := self["rom.build"] + self["array.assembly_build"] + self["solver.precond_build"]
		return cold > 0.5*wall
	case "serve-sweep":
		server := group["serveapi"] + group["engine"] + group["rom"] + group["array"] + group["solver"]
		return layers["solver.iterations_per_scenario"] < 0.5 &&
			self["rom.field"]+group["serveapi"] > 0.5*server
	}
	return false
}

func logMetrics(vals map[string]float64, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
}
