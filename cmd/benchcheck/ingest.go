// Ingestion: fold measurement artifacts (go test -bench output, cmd/loadgen
// JSON reports) into the host-profile section of the baseline, gating the
// new numbers against the pinned profile first. See the package comment in
// main.go and docs/MEASUREMENT.md for how this closes the measurement loop.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/solver/tuning"
)

// ingestConfig carries the -ingest flag set.
type ingestConfig struct {
	Files     []string
	Profile   string  // host-profile key; "" = the running host
	Tolerance float64 // regression factor for ns/op and loadgen p99 gates
	Write     bool    // splice the updated profile back into -baseline
}

// runIngest parses each artifact, gates it against the pinned profile for
// the target host (exact key when present, else the nearest same-platform
// profile — the generous tolerance absorbs the host difference), folds the
// measurements into the profile, and — only when the gate passed — persists
// it per -write.
func runIngest(baselinePath string, raw []byte, base *baseline, cfg ingestConfig) error {
	set := base.HostProfiles
	if set == nil {
		set = tuning.Set{}
	}
	key := cfg.Profile
	if key == "" {
		key = tuning.Key(runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	}
	goos, goarch, nproc, err := splitProfileKey(key)
	if err != nil {
		return err
	}
	pinned, exact := set.Match(goos, goarch, nproc)
	switch {
	case pinned == nil:
		fmt.Printf("ingest: no pinned profile for platform %s/%s — first measurement, nothing to gate against\n", goos, goarch)
	case exact:
		fmt.Printf("ingest: gating against pinned profile %s\n", key)
	default:
		fmt.Printf("ingest: no pinned %s profile — gating against nearest same-platform profile %s\n",
			key, tuning.Key(pinned.GOOS, pinned.GOARCH, pinned.NProc))
	}

	updated := cloneProfile(set[key])
	if updated == nil {
		updated = &tuning.HostProfile{GOOS: goos, GOARCH: goarch, NProc: nproc}
	}
	updated.UpdatedPR = base.PR

	var b strings.Builder
	failures := 0
	for _, f := range cfg.Files {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if looksLikeJSON(data) {
			eps, err := parseLoadgenReport(data)
			if err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			failures += gateLoadgen(&b, pinned, eps, cfg.Tolerance)
			if updated.Loadgen == nil {
				updated.Loadgen = make(map[string]*tuning.LoadgenEntry)
			}
			for ep, e := range eps {
				updated.Loadgen[ep] = e
			}
			fmt.Fprintf(&b, "read: %s: loadgen report, %d endpoint(s)\n", f, len(eps))
		} else {
			folded := foldBenchEntries(parseBenchOutput(string(data)))
			if len(folded) == 0 {
				return fmt.Errorf("%s: no benchmark results found (neither bench text nor a loadgen JSON report)", f)
			}
			failures += gateBench(&b, pinned, folded, cfg.Tolerance)
			if updated.Benchmarks == nil {
				updated.Benchmarks = make(map[string]*tuning.BenchEntry)
			}
			for name, e := range folded {
				updated.Benchmarks[name] = e
			}
			fmt.Fprintf(&b, "read: %s: bench output, %d benchmark(s)\n", f, len(folded))
		}
	}
	fmt.Print(b.String())
	if failures > 0 {
		return fmt.Errorf("%d ingest regression(s); baseline left untouched", failures)
	}

	set[key] = updated
	fmt.Printf("ingest: profile %s ok (%d benchmarks, %d loadgen endpoints)\n", key, len(updated.Benchmarks), len(updated.Loadgen))
	if !cfg.Write {
		fmt.Println("ingest: gate-only run (no -write), baseline unchanged")
		return nil
	}
	out, err := spliceHostProfiles(raw, set)
	if err != nil {
		return err
	}
	if err := os.WriteFile(baselinePath, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("ingest: wrote %s\n", baselinePath)
	return nil
}

// splitProfileKey parses "<goos>/<goarch>/n<nproc>".
func splitProfileKey(key string) (goos, goarch string, nproc int, err error) {
	parts := strings.Split(key, "/")
	if len(parts) == 3 && strings.HasPrefix(parts[2], "n") && parts[0] != "" && parts[1] != "" {
		if n, e := strconv.Atoi(parts[2][1:]); e == nil && n >= 1 {
			return parts[0], parts[1], n, nil
		}
	}
	return "", "", 0, fmt.Errorf("-profile %q: want <goos>/<goarch>/n<nproc>, e.g. linux/amd64/n4", key)
}

// cloneProfile deep-copies a host profile so gating failures never leave a
// half-mutated set behind. Returns nil for nil.
func cloneProfile(p *tuning.HostProfile) *tuning.HostProfile {
	if p == nil {
		return nil
	}
	out := *p
	if p.Benchmarks != nil {
		out.Benchmarks = make(map[string]*tuning.BenchEntry, len(p.Benchmarks))
		for k, e := range p.Benchmarks {
			c := *e
			if e.Value != nil {
				v := *e.Value
				c.Value = &v
			}
			if e.AllocsPerOp != nil {
				a := *e.AllocsPerOp
				c.AllocsPerOp = &a
			}
			if e.Values != nil {
				c.Values = make(map[string]float64, len(e.Values))
				for sk, sv := range e.Values {
					c.Values[sk] = sv
				}
			}
			out.Benchmarks[k] = &c
		}
	}
	if p.Loadgen != nil {
		out.Loadgen = make(map[string]*tuning.LoadgenEntry, len(p.Loadgen))
		for k, e := range p.Loadgen {
			c := *e
			out.Loadgen[k] = &c
		}
	}
	return &out
}

func looksLikeJSON(data []byte) bool {
	trimmed := bytes.TrimSpace(data)
	return len(trimmed) > 0 && trimmed[0] == '{'
}

// loadgenReport mirrors the report cmd/loadgen emits; only the fields the
// ingest gate needs are decoded here.
type loadgenReport struct {
	Schema    string                          `json:"schema"`
	Endpoints map[string]*tuning.LoadgenEntry `json:"endpoints"`
}

func parseLoadgenReport(data []byte) (map[string]*tuning.LoadgenEntry, error) {
	var rep loadgenReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if !strings.HasPrefix(rep.Schema, "loadgen-report/") {
		return nil, fmt.Errorf("JSON artifact has schema %q, want loadgen-report/v1", rep.Schema)
	}
	if len(rep.Endpoints) == 0 {
		return nil, fmt.Errorf("loadgen report has no endpoints section")
	}
	for ep, e := range rep.Endpoints {
		if e == nil {
			return nil, fmt.Errorf("loadgen report endpoint %q is null", ep)
		}
	}
	return rep.Endpoints, nil
}

// foldBenchEntries groups flat measurements ("BenchmarkX/sub/path") into
// per-benchmark host-profile entries: a bare name becomes a value entry, sub
// rows a values map, folding the worst allocs/op across rows into the
// entry's ceiling.
func foldBenchEntries(ms map[string]*measurement) map[string]*tuning.BenchEntry {
	out := make(map[string]*tuning.BenchEntry)
	for name, m := range ms {
		top, sub, hasSub := strings.Cut(name, "/")
		e := out[top]
		if e == nil {
			e = &tuning.BenchEntry{Unit: "ns/op"}
			out[top] = e
		}
		if hasSub {
			if e.Values == nil {
				e.Values = make(map[string]float64)
			}
			e.Values[sub] = m.MinNs
		} else {
			v := m.MinNs
			e.Value = &v
		}
		if m.HasAllocs && (e.AllocsPerOp == nil || m.MaxAllocs > *e.AllocsPerOp) {
			a := m.MaxAllocs
			e.AllocsPerOp = &a
		}
	}
	// A parent line alongside sub rows (rare) cannot keep both forms — fold
	// the bare value in as a self row so the entry stays schema-valid.
	for _, e := range out {
		if e.Value != nil && len(e.Values) > 0 {
			e.Values["self"] = *e.Value
			e.Value = nil
		}
	}
	return out
}

// gateBench compares the freshly folded entries against the pinned
// profile's: a new best-ns/op beyond tolerance × the pinned value fails, as
// does exceeding a pinned allocs/op ceiling (exact — allocation counts are
// contracts, not noise). Rows without a pinned counterpart pass (first
// measurement).
func gateBench(b *strings.Builder, pinned *tuning.HostProfile, folded map[string]*tuning.BenchEntry, tolerance float64) (failures int) {
	if pinned == nil {
		return 0
	}
	for _, name := range sortedKeys(folded) {
		fresh := folded[name]
		pin := pinned.Benchmarks[name]
		if pin == nil || pin.Unit != "ns/op" {
			continue
		}
		compare := func(row string, freshNs, pinNs float64) {
			limit := pinNs * tolerance
			if freshNs > limit {
				failures++
				fmt.Fprintf(b, "FAIL: %s: %.0f ns/op exceeds %.1f× pinned %.0f ns/op\n", row, freshNs, tolerance, pinNs)
			} else {
				fmt.Fprintf(b, "ok:   %s: %.0f ns/op (pinned %.0f, limit %.0f)\n", row, freshNs, pinNs, limit)
			}
		}
		if fresh.Value != nil && pin.Value != nil {
			compare(name, *fresh.Value, *pin.Value)
		}
		for _, sub := range sortedKeys(fresh.Values) {
			if pinNs, ok := pin.Values[sub]; ok {
				compare(name+"/"+sub, fresh.Values[sub], pinNs)
			}
		}
		if pin.AllocsPerOp != nil && fresh.AllocsPerOp != nil && *fresh.AllocsPerOp > *pin.AllocsPerOp {
			failures++
			fmt.Fprintf(b, "FAIL: %s: %.1f allocs/op exceeds the pinned ceiling of %.0f\n", name, *fresh.AllocsPerOp, *pin.AllocsPerOp)
		}
	}
	return failures
}

// gateLoadgen compares a fresh report's per-endpoint p99 against the pinned
// profile's loadgen section at the same tolerance. Endpoints without a
// pinned counterpart pass (first measurement).
func gateLoadgen(b *strings.Builder, pinned *tuning.HostProfile, eps map[string]*tuning.LoadgenEntry, tolerance float64) (failures int) {
	if pinned == nil {
		return 0
	}
	for _, ep := range sortedKeys(eps) {
		fresh := eps[ep]
		pin := pinned.Loadgen[ep]
		if pin == nil || pin.P99MS <= 0 {
			continue
		}
		limit := pin.P99MS * tolerance
		if fresh.P99MS > limit {
			failures++
			fmt.Fprintf(b, "FAIL: loadgen %s: p99 %.1f ms exceeds %.1f× pinned %.1f ms\n", ep, fresh.P99MS, tolerance, pin.P99MS)
		} else {
			fmt.Fprintf(b, "ok:   loadgen %s: p99 %.1f ms (pinned %.1f, limit %.1f)\n", ep, fresh.P99MS, pin.P99MS, limit)
		}
	}
	return failures
}

// spliceHostProfiles replaces (or appends) the baseline's host_profiles
// section in the raw file bytes, leaving every other byte — key order,
// comments-as-notes, formatting — untouched. Re-marshaling the whole file
// would alphabetize it and destroy the curated reading order.
func spliceHostProfiles(raw []byte, set tuning.Set) ([]byte, error) {
	section, err := json.MarshalIndent(set, "  ", "  ")
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil { // opening '{'
		return nil, err
	}
	for dec.More() {
		kt, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := kt.(string)
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
		if key != "host_profiles" {
			continue
		}
		// RawMessage holds the value bytes verbatim, so the value's source
		// span ends at the decoder's offset and starts len(v) before it.
		end := dec.InputOffset()
		start := end - int64(len(v))
		var out bytes.Buffer
		out.Write(raw[:start])
		out.Write(section)
		out.Write(raw[end:])
		return out.Bytes(), nil
	}
	// No host_profiles key yet: insert it before the closing brace.
	closing := bytes.LastIndexByte(raw, '}')
	if closing < 0 {
		return nil, fmt.Errorf("baseline has no closing brace")
	}
	head := bytes.TrimRight(raw[:closing], " \t\n")
	var out bytes.Buffer
	out.Write(head)
	out.WriteString(",\n  \"host_profiles\": ")
	out.Write(section)
	out.WriteString("\n")
	out.Write(raw[closing:])
	return out.Bytes(), nil
}
