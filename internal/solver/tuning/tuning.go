// Package tuning holds the per-host profile schema of a bench-global/v2
// snapshot (BENCH_global.json's host_profiles section): the benchmark and
// load-generator results measured on hosts with one (GOOS, GOARCH, nproc)
// signature. cmd/benchcheck folds measurements into it and gates new ones
// against it; cmd/loadgen writes its reports in its entry types. Parse
// decodes and validates the section, and Match picks the profile for a
// host. docs/MEASUREMENT.md documents the loop.
package tuning

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Key formats the host-profile key: "<goos>/<goarch>/n<nproc>".
func Key(goos, goarch string, nproc int) string {
	return fmt.Sprintf("%s/%s/n%d", goos, goarch, nproc)
}

// HostProfile is one per-host section of a bench-global/v2 snapshot: the
// benchmark and load-generator results measured on hosts with this
// (GOOS, GOARCH, nproc) signature. cmd/benchcheck shares these types for
// ingestion and gating.
type HostProfile struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NProc     int    `json:"nproc"`
	UpdatedPR int    `json:"updated_pr,omitempty"`
	// Benchmarks holds go test -bench results folded per benchmark name
	// (best ns/op across -cpu runs, worst allocs/op).
	Benchmarks map[string]*BenchEntry `json:"benchmarks,omitempty"`
	// Loadgen holds the per-endpoint latency/throughput section of the most
	// recent cmd/loadgen report ingested for this host profile.
	Loadgen map[string]*LoadgenEntry `json:"loadgen,omitempty"`
}

// BenchEntry is one folded benchmark result inside a host profile. Exactly
// one of Value (single result) or Values (sub-benchmark map) is set.
type BenchEntry struct {
	Unit        string             `json:"unit"`
	Value       *float64           `json:"value,omitempty"`
	Values      map[string]float64 `json:"values,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
}

// LoadgenEntry is one endpoint row of an ingested loadgen report.
type LoadgenEntry struct {
	Count         int64   `json:"count"`
	Errors        int64   `json:"errors"`
	Rejected      int64   `json:"rejected"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	MaxMS         float64 `json:"max_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// Set is a collection of host profiles keyed by Key.
type Set map[string]*HostProfile

// Parse decodes the host profiles of a full bench-global/v2 file (the
// "host_profiles" section; a v2 file without one is an empty set). The
// section is decoded strictly: an unknown key anywhere in a profile — a
// leftover block or a mistyped pin such as "allocs_per_opp" — is an error
// rather than a field silently dropped on the next benchcheck -write. Each
// profile's key must agree with its goos/goarch/nproc fields.
func Parse(raw []byte) (Set, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, fmt.Errorf("tuning: %w", err)
	}
	section, ok := top["host_profiles"]
	if !ok {
		// A versioned file without host_profiles is an empty set; anything
		// else — a v1 file, or no schema at all — predates them.
		var s string
		if json.Unmarshal(top["schema"], &s) != nil || s != "bench-global/v2" {
			return nil, fmt.Errorf("tuning: snapshot schema %q has no host profiles (want bench-global/v2)", s)
		}
		return Set{}, nil
	}
	dec := json.NewDecoder(bytes.NewReader(section))
	dec.DisallowUnknownFields()
	var set Set
	if err := dec.Decode(&set); err != nil {
		return nil, fmt.Errorf("tuning: host_profiles: %w", err)
	}
	for key, p := range set {
		if p == nil {
			return nil, fmt.Errorf("tuning: host profile %q is null", key)
		}
		if want := Key(p.GOOS, p.GOARCH, p.NProc); key != want {
			return nil, fmt.Errorf("tuning: host profile key %q disagrees with its fields (want %q)", key, want)
		}
		for name, b := range p.Benchmarks {
			if b == nil || b.Unit == "" || (b.Value == nil) == (len(b.Values) == 0) {
				return nil, fmt.Errorf("tuning: host profile %q benchmark %q: want a unit and exactly one of value/values", key, name)
			}
		}
	}
	return set, nil
}

// Match selects the profile for a host: the exact (goos, goarch, nproc) key
// when present, else the same-platform profile with the nearest nproc
// (preferring smaller — measurements from fewer cores understate, never
// overstate, the host's parallelism). The bool reports whether the match
// was exact.
func (s Set) Match(goos, goarch string, nproc int) (p *HostProfile, exact bool) {
	if p, ok := s[Key(goos, goarch, nproc)]; ok {
		return p, true
	}
	var keys []string
	for k, c := range s {
		if c.GOOS == goos && c.GOARCH == goarch {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, false
	}
	sort.Strings(keys) // deterministic tie-break
	best := s[keys[0]]
	for _, k := range keys[1:] {
		c := s[k]
		if distance(c.NProc, nproc) < distance(best.NProc, nproc) ||
			(distance(c.NProc, nproc) == distance(best.NProc, nproc) && c.NProc < best.NProc) {
			best = c
		}
	}
	return best, false
}

func distance(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// Startup is a no-op that always returns a nil error. The solver's auto
// rules are fixed in code (PrecondAuto is IC0, solver.DefaultWorkers), so
// there is nothing to read or apply at startup. It stays, like
// morestress.EngineStats.Refinements, because the e2ebench harness calls it.
func Startup(string) (struct{}, error) { return struct{}{}, nil }
