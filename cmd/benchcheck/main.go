// Command benchcheck is the CI perf-regression gate: it validates the
// BENCH_global.json perf snapshot against its schema and, given the output
// of a `go test -bench` run, fails when a measured benchmark regresses past
// the pinned baselines — ns/op beyond a generous tolerance (CI machines are
// noisy and slower than the baseline container; default 3×), or allocs/op
// above the pinned floor (the zero-allocation contracts are exact, no
// tolerance). The gate turns the snapshot from a descriptive artifact into
// an enforced contract: renaming or dropping a required benchmark fails the
// run too (-require), every required benchmark must pin an allocs_per_op
// floor, and a baseline with duplicate JSON keys (which encoding/json would
// silently collapse) is rejected, so the guard cannot be weakened silently.
//
// Since bench-global/v2 the snapshot also carries per-host-profile sections
// keyed "(GOOS)/(GOARCH)/n(nproc)" (see internal/solver/tuning), so the
// single-thread dev-container numbers and real multi-core CI numbers stop
// overwriting each other and gates compare like against like. The -ingest
// mode folds measurement artifacts — `go test -bench` output and
// cmd/loadgen JSON reports — into the profile matching the running (or
// -profile-named) host: new numbers are gated against the pinned profile
// first (ns/op and loadgen p99 beyond -tolerance× fail, and nothing is
// written then), and -write persists the updated baseline.
// docs/MEASUREMENT.md documents the loop.
//
// Usage:
//
//	benchcheck -baseline BENCH_global.json                      # schema only
//	go test -bench . -benchmem | benchcheck -baseline BENCH_global.json -bench -
//	benchcheck -baseline BENCH_global.json -bench out.txt \
//	    -tolerance 3 -require BenchmarkBatchEngine,BenchmarkPCGNoAlloc
//	benchcheck -baseline BENCH_global.json -ingest bench.txt,loadgen.json \
//	    [-profile linux/amd64/n4] [-write]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/solver/tuning"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_global.json", "perf snapshot to validate and compare against")
	benchPath := flag.String("bench", "", "go test -bench output to check against the baselines (\"-\" for stdin; empty = schema validation only)")
	tolerance := flag.Float64("tolerance", 3.0, "ns/op regression factor that fails the gate (generous: absorbs CI noise and machine differences)")
	require := flag.String("require", "", "comma-separated benchmark entries that must appear in the measured output")
	ingest := flag.String("ingest", "", "comma-separated measurement artifacts (go test -bench output and/or cmd/loadgen JSON reports) to fold into the host profile, gating against its pinned values first")
	profile := flag.String("profile", "", "host-profile key goos/goarch/nN the ingested artifacts were measured on (default: the running host)")
	write := flag.Bool("write", false, "persist the ingested host profile back into -baseline (skipped when the gate fails)")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	base, err := parseBaseline(raw)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *baselinePath, err))
	}
	fmt.Printf("benchcheck: %s schema ok (%d benchmark entries, %d host profiles, pr %d)\n",
		*baselinePath, len(base.Benchmarks), len(base.HostProfiles), base.PR)
	if *ingest != "" {
		if err := runIngest(*baselinePath, raw, base, ingestConfig{
			Files:     strings.Split(*ingest, ","),
			Profile:   *profile,
			Tolerance: *tolerance,
			Write:     *write,
		}); err != nil {
			fatal(err)
		}
		if *benchPath == "" {
			return
		}
	}
	if *benchPath == "" {
		return
	}

	var benchRaw []byte
	if *benchPath == "-" {
		benchRaw, err = io.ReadAll(os.Stdin)
	} else {
		benchRaw, err = os.ReadFile(*benchPath)
	}
	if err != nil {
		fatal(err)
	}
	measured := parseBenchOutput(string(benchRaw))
	if len(measured) == 0 {
		fatal(fmt.Errorf("no benchmark results found in %s", *benchPath))
	}
	var required []string
	if *require != "" {
		required = strings.Split(*require, ",")
	}
	failures, report := check(base, measured, *tolerance, required)
	fmt.Print(report)
	if failures > 0 {
		fatal(fmt.Errorf("%d benchmark regression(s)", failures))
	}
	fmt.Println("benchcheck: all measured benchmarks within tolerance")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}

// baseline is the decoded BENCH_global.json.
type baseline struct {
	Schema       string
	PR           int
	Benchmarks   map[string]*baseEntry
	HostProfiles tuning.Set
}

// baseEntry is one benchmark entry of the snapshot. Exactly one of Value
// (single result) or Values (sub-benchmark map) is set; AllocsPerOp, when
// present, is an exact ceiling for the measured allocs/op.
type baseEntry struct {
	Unit        string
	Value       float64
	HasValue    bool
	Values      map[string]float64
	AllocsPerOp float64
	HasAllocs   bool
}

// parseBaseline validates the bench-global/v2 schema: required top-level
// keys, per benchmark entry a unit plus exactly one of value/values
// (numbers), and — new in v2 — an optional host_profiles section validated
// by internal/solver/tuning. This replaces the old parse-only check — a
// snapshot that decodes but lost its fields would silently disarm the gate.
func parseBaseline(raw []byte) (*baseline, error) {
	if err := checkDuplicateKeys(raw); err != nil {
		return nil, err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, err
	}
	out := &baseline{Benchmarks: make(map[string]*baseEntry)}
	if err := json.Unmarshal(top["schema"], &out.Schema); err != nil || out.Schema != "bench-global/v2" {
		if out.Schema == "bench-global/v1" {
			return nil, fmt.Errorf("schema is bench-global/v1: v1 snapshots predate per-host profiles — " +
				"set \"schema\": \"bench-global/v2\" and move host-specific measurements into a " +
				"\"host_profiles\" section keyed \"<goos>/<goarch>/n<nproc>\" (see docs/MEASUREMENT.md " +
				"and `benchcheck -ingest` for regenerating it from measurement artifacts)")
		}
		return nil, fmt.Errorf("schema key missing or not \"bench-global/v2\"")
	}
	if err := json.Unmarshal(top["pr"], &out.PR); err != nil || out.PR < 1 {
		return nil, fmt.Errorf("pr key missing or not a positive number")
	}
	var benches map[string]json.RawMessage
	if err := json.Unmarshal(top["benchmarks"], &benches); err != nil {
		return nil, fmt.Errorf("benchmarks key missing or not an object")
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("benchmarks object is empty")
	}
	for name, rawEntry := range benches {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(rawEntry, &fields); err != nil {
			return nil, fmt.Errorf("benchmark %q: not an object", name)
		}
		e := &baseEntry{}
		if err := json.Unmarshal(fields["unit"], &e.Unit); err != nil || e.Unit == "" {
			return nil, fmt.Errorf("benchmark %q: unit key missing or not a string", name)
		}
		_, hasValue := fields["value"]
		_, hasValues := fields["values"]
		if hasValue == hasValues {
			return nil, fmt.Errorf("benchmark %q: want exactly one of value/values", name)
		}
		if hasValue {
			if err := json.Unmarshal(fields["value"], &e.Value); err != nil {
				return nil, fmt.Errorf("benchmark %q: value is not a number", name)
			}
			e.HasValue = true
		} else {
			if err := json.Unmarshal(fields["values"], &e.Values); err != nil || len(e.Values) == 0 {
				return nil, fmt.Errorf("benchmark %q: values is not a non-empty object of numbers", name)
			}
		}
		if rawAllocs, ok := fields["allocs_per_op"]; ok {
			if err := json.Unmarshal(rawAllocs, &e.AllocsPerOp); err != nil || e.AllocsPerOp < 0 {
				return nil, fmt.Errorf("benchmark %q: allocs_per_op is not a non-negative number", name)
			}
			e.HasAllocs = true
		}
		out.Benchmarks[name] = e
	}
	// The host_profiles section's schema and validation live in
	// internal/solver/tuning, shared with cmd/loadgen's report rows.
	set, err := tuning.Parse(raw)
	if err != nil {
		return nil, err
	}
	out.HostProfiles = set
	return out, nil
}

// checkDuplicateKeys walks the raw JSON token stream and rejects any object
// declaring the same key twice. encoding/json silently keeps the last
// duplicate, which for the benchmarks (or a values) object would let one
// pinned baseline shadow another without any visible failure.
func checkDuplicateKeys(raw []byte) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	var walk func(path string) error
	walk = func(path string) error {
		t, err := dec.Token()
		if err != nil {
			return err
		}
		d, ok := t.(json.Delim)
		if !ok {
			return nil // scalar value
		}
		switch d {
		case '{':
			seen := make(map[string]bool)
			for dec.More() {
				kt, err := dec.Token()
				if err != nil {
					return err
				}
				key, _ := kt.(string)
				if seen[key] {
					return fmt.Errorf("duplicate key %q in object %s", key, path)
				}
				seen[key] = true
				if err := walk(path + "." + key); err != nil {
					return err
				}
			}
		case '[':
			i := 0
			for dec.More() {
				if err := walk(fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
				i++
			}
		}
		_, err = dec.Token() // consume the closing delimiter
		return err
	}
	return walk("$")
}

// measurement aggregates the result lines of one benchmark name across -cpu
// values and repetitions: the gate compares the best ns/op (machines only
// add noise upward) but the worst allocs/op (the zero-alloc contract must
// hold for every worker count).
type measurement struct {
	MinNs     float64
	MaxAllocs float64
	HasAllocs bool
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkPCGNoAlloc-4   500   2576731 ns/op   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)\s+\d+\s+([0-9.]+) ns/op(.*)$`)

// allocsField extracts the allocs/op column from a result line's tail.
var allocsField = regexp.MustCompile(`([0-9.]+) allocs/op`)

// procsSuffix is the trailing -GOMAXPROCS testing appends to benchmark
// names (absent at GOMAXPROCS=1).
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput collects the result lines of a `go test -bench` run,
// keyed by benchmark name with the -GOMAXPROCS suffix stripped (so -cpu 1,4
// runs of one benchmark fold into one measurement).
func parseBenchOutput(out string) map[string]*measurement {
	ms := make(map[string]*measurement)
	for _, line := range strings.Split(out, "\n") {
		sub := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if sub == nil {
			continue
		}
		name := procsSuffix.ReplaceAllString(sub[1], "")
		ns, err := strconv.ParseFloat(sub[2], 64)
		if err != nil {
			continue
		}
		m := ms[name]
		if m == nil {
			m = &measurement{MinNs: ns}
			ms[name] = m
		} else if ns < m.MinNs {
			m.MinNs = ns
		}
		if a := allocsField.FindStringSubmatch(sub[3]); a != nil {
			if allocs, err := strconv.ParseFloat(a[1], 64); err == nil {
				if allocs > m.MaxAllocs {
					m.MaxAllocs = allocs
				}
				m.HasAllocs = true
			}
		}
	}
	return ms
}

// check compares the measurements against the baseline: ns/op entries
// (value or per-sub-benchmark values) fail beyond tolerance × baseline,
// allocs_per_op floors fail exactly, and required entries must have been
// measured — every pinned sub-benchmark of them, so renaming or dropping
// one row of a values entry cannot silently disarm its piece of the gate.
// Entries in units other than ns/op (iteration counts, metric tables) are
// informational and skipped.
func check(base *baseline, measured map[string]*measurement, tolerance float64, required []string) (failures int, report string) {
	var b strings.Builder
	missing := make(map[string][]string) // entry → pinned names absent from the run
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(&b, "FAIL: "+format+"\n", args...)
	}
	compare := func(entry, name string, baseNs float64, e *baseEntry) {
		m, ok := measured[name]
		if !ok {
			missing[entry] = append(missing[entry], name)
			return
		}
		limit := baseNs * tolerance
		if m.MinNs > limit {
			fail("%s: %.0f ns/op exceeds %.1f× baseline %.0f ns/op", name, m.MinNs, tolerance, baseNs)
		} else {
			fmt.Fprintf(&b, "ok:   %s: %.0f ns/op (baseline %.0f, limit %.0f)\n", name, m.MinNs, baseNs, limit)
		}
		if e.HasAllocs {
			if !m.HasAllocs {
				fail("%s: baseline pins %.0f allocs/op but the run did not report allocs (missing -benchmem?)", name, e.AllocsPerOp)
			} else if m.MaxAllocs > e.AllocsPerOp {
				fail("%s: %.1f allocs/op exceeds the pinned floor of %.0f", name, m.MaxAllocs, e.AllocsPerOp)
			} else {
				fmt.Fprintf(&b, "ok:   %s: %.0f allocs/op (floor %.0f)\n", name, m.MaxAllocs, e.AllocsPerOp)
			}
		}
	}
	// Sorted iteration keeps the report stable run to run, so CI log diffs
	// show real changes rather than map-order shuffles.
	for _, name := range sortedKeys(base.Benchmarks) {
		e := base.Benchmarks[name]
		if e.Unit != "ns/op" {
			continue
		}
		if e.HasValue {
			compare(name, name, e.Value, e)
			continue
		}
		for _, sub := range sortedKeys(e.Values) {
			compare(name, name+"/"+sub, e.Values[sub], e)
		}
	}
	for _, name := range required {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, ok := base.Benchmarks[name]
		if !ok || e.Unit != "ns/op" {
			fail("required benchmark %s has no ns/op baseline entry to gate against", name)
			continue
		}
		// A required benchmark must also pin its allocation behavior: a
		// ns/op-only entry would let an allocation regression through the
		// gate's most-watched benchmarks.
		if !e.HasAllocs {
			fail("required benchmark %s pins no allocs_per_op floor in the baseline", name)
		}
		for _, absent := range missing[name] {
			fail("required benchmark %s was not measured against its %s baseline", name, absent)
		}
	}
	return failures, b.String()
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
