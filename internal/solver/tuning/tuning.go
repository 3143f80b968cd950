// Package tuning closes the measurement loop between the CI benchmark
// harness and the solver's auto-selection knobs: it reads the per-host
// profile sections of a bench-global/v2 snapshot (BENCH_global.json, the
// embedded copy of its host_profiles section, or a -tuning file handed to
// serve/router), matches the running host by (GOOS, GOARCH, nproc), and
// derives the live values of solver.AutoIC0Threshold and
// solver.DefaultWorkers from that host's own measurements instead of the
// hand-set defaults.
//
// The derivation rules are deliberately conservative and documented in
// docs/MEASUREMENT.md:
//
//   - IC0 crossover: the smallest measured system (tuning.precond_crossover
//     rows, produced by the MEASURE=1 harness) where the warm IC0 solve
//     beats block-Jacobi-3, rounded down to the nearest 500 DoFs. The
//     crossover is a cost-ratio property, so it also transfers to profiles
//     matched on (GOOS, GOARCH) alone.
//   - Worker default: capped at 1 when the profile measures parallel
//     kernels losing to serial (tuning.matvec_par_speedup < 1, or a
//     single-hardware-thread host); left at the GOMAXPROCS fallback
//     otherwise. Exact host match only. A 1-worker default also keeps
//     OrderingAuto on the natural factor (solver.ResolveOrdering).
//
// When no profile matches, every knob keeps its hand-set default — the
// package can only ever replace a constant with a measurement, never leave
// the solver unconfigured.
package tuning

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/solver"
)

// snapshotJSON is the embedded copy of BENCH_global.json's host_profiles
// section, regenerated by `benchcheck -ingest ... -snapshot
// internal/solver/tuning/snapshot.json` whenever the measured data changes
// (docs/MEASUREMENT.md). It is the tuning source when serve/router run
// without a -tuning file.
//
//go:embed snapshot.json
var snapshotJSON []byte

// Key formats the host-profile key: "<goos>/<goarch>/n<nproc>".
func Key(goos, goarch string, nproc int) string {
	return fmt.Sprintf("%s/%s/n%d", goos, goarch, nproc)
}

// HostProfile is one per-host section of a bench-global/v2 snapshot: the
// benchmark and load-generator results measured on hosts with this
// (GOOS, GOARCH, nproc) signature, plus the tuning-relevant aggregates
// benchcheck -ingest derives from them. cmd/benchcheck shares these types
// for ingestion and gating.
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
	// Tuning holds the measured aggregates the threshold derivation reads.
	Tuning *TuningData `json:"tuning,omitempty"`
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

// TuningData carries the measured aggregates the knob derivation consumes.
type TuningData struct {
	// PrecondCrossover rows come from the MEASURE=1 harness
	// (TestMeasureReducedGlobalPrecond): warm per-solve wall time of the
	// assembly-cached IC0 and block-Jacobi-3 preconditioners by system size.
	PrecondCrossover []CrossoverRow `json:"precond_crossover,omitempty"`
	// MatvecParSpeedup is serial-ns / par-ns of the blocked mat-vec
	// (BenchmarkBlockedMulVec blocked rows): > 1 means the partitioned
	// fan-out beats the serial kernel on this host.
	MatvecParSpeedup float64 `json:"matvec_par_speedup,omitempty"`
}

// CrossoverRow is one measured point of the IC0 vs block-Jacobi-3 warm
// wall-time comparison.
type CrossoverRow struct {
	DoFs      int     `json:"dofs"`
	IC0WarmMS float64 `json:"ic0_warm_ms"`
	BJ3WarmMS float64 `json:"bj3_warm_ms"`
}

// Set is a collection of host profiles keyed by Key.
type Set map[string]*HostProfile

// Parse decodes host profiles from raw JSON, accepting either a full
// bench-global/v2 file (profiles under "host_profiles") or a bare
// host_profiles object (the embedded snapshot). Each profile's key must
// agree with its goos/goarch/nproc fields.
func Parse(raw []byte) (Set, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, fmt.Errorf("tuning: %w", err)
	}
	section := raw
	if hp, ok := top["host_profiles"]; ok {
		section = hp
	} else if schema, ok := top["schema"]; ok {
		// A versioned file without host_profiles is an empty set; anything
		// else under "schema" that isn't v2 is a v1 file that predates them.
		var s string
		if json.Unmarshal(schema, &s) == nil && s != "bench-global/v2" {
			return nil, fmt.Errorf("tuning: snapshot schema %q has no host profiles (want bench-global/v2)", s)
		}
		return Set{}, nil
	}
	var set Set
	if err := json.Unmarshal(section, &set); err != nil {
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
// was exact; callers apply only nproc-insensitive derivations to inexact
// matches.
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

// Tunables is one resolved set of solver knobs plus its provenance.
type Tunables struct {
	// IC0Threshold feeds solver.SetAutoIC0Threshold.
	IC0Threshold int
	// Workers feeds solver.SetDefaultWorkers; 0 keeps the GOMAXPROCS
	// fallback.
	Workers int
	// Source describes where each value came from, for the startup log.
	Source string
}

// Defaults returns the hand-set constants as a Tunables.
func Defaults() Tunables {
	return Tunables{
		IC0Threshold: solver.DefaultAutoIC0Threshold,
		Workers:      0,
		Source:       "hand-set defaults (no matching host profile)",
	}
}

// Derive computes the solver knobs from a matched host profile. A nil
// profile yields Defaults. When exact is false only the nproc-insensitive
// IC0 crossover is derived; the worker knob keeps its default because it
// encodes how well *this core count* fans out.
func Derive(p *HostProfile, exact bool) Tunables {
	t := Defaults()
	if p == nil {
		return t
	}
	var notes []string
	key := Key(p.GOOS, p.GOARCH, p.NProc)
	if th, at, ok := ic0Crossover(p); ok {
		t.IC0Threshold = th
		notes = append(notes, fmt.Sprintf("ic0 threshold %d (measured crossover at %d DoFs, %s)", th, at, key))
	}
	if !exact {
		if len(notes) == 0 {
			t.Source = fmt.Sprintf("hand-set defaults (nearest profile %s has no crossover data)", key)
		} else {
			t.Source = strings.Join(append(notes, "workers default (inexact nproc match)"), "; ")
		}
		return t
	}
	td := p.Tuning
	if p.NProc == 1 {
		// One hardware thread: fan-out is pure dispatch overhead, and the
		// multicolor factor's extra iterations buy nothing.
		t.Workers = 1
		notes = append(notes, "workers 1 (single-hardware-thread host)")
	} else if td != nil && td.MatvecParSpeedup > 0 && td.MatvecParSpeedup < 1 {
		t.Workers = 1
		notes = append(notes, fmt.Sprintf("workers 1 (measured mat-vec par speedup %.2f)", td.MatvecParSpeedup))
	}
	if len(notes) == 0 {
		t.Source = fmt.Sprintf("profile %s matched but carries no tuning data; hand-set defaults", key)
	} else {
		t.Source = strings.Join(notes, "; ")
	}
	return t
}

// ic0Crossover derives the PrecondAuto IC0 threshold from the profile's
// measured warm-solve crossover rows: the smallest system where IC0 beats
// block-Jacobi-3, rounded down to the nearest 500 DoFs (floor 500 — the
// rounding mirrors how the hand-set 2500 sits just under the measured
// 2 709-DoF win). Returns ok=false when the profile has no rows or IC0
// never wins in them.
func ic0Crossover(p *HostProfile) (threshold, atDoFs int, ok bool) {
	if p.Tuning == nil {
		return 0, 0, false
	}
	best := 0
	for _, row := range p.Tuning.PrecondCrossover {
		if row.DoFs > 0 && row.IC0WarmMS <= row.BJ3WarmMS && (best == 0 || row.DoFs < best) {
			best = row.DoFs
		}
	}
	if best == 0 {
		return 0, 0, false
	}
	threshold = best / 500 * 500
	if threshold < 500 {
		threshold = 500
	}
	return threshold, best, true
}

// Apply installs the tunables into the solver package.
func Apply(t Tunables) {
	solver.SetAutoIC0Threshold(t.IC0Threshold)
	solver.SetDefaultWorkers(t.Workers)
}

// Reset restores every solver knob to its hand-set default (tests).
func Reset() { Apply(Defaults()) }

// Startup resolves and applies the tunables for the running host at process
// startup: path names a bench-global/v2 file (or bare host_profiles
// snapshot) to read; an empty path uses the embedded snapshot. The returned
// Tunables describe what was applied; the error reports an unreadable or
// invalid file (the knobs keep their defaults then).
func Startup(path string) (Tunables, error) {
	raw := snapshotJSON
	src := "embedded snapshot"
	if path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			return Defaults(), fmt.Errorf("tuning: %w", err)
		}
		raw, src = b, path
	}
	set, err := Parse(raw)
	if err != nil {
		return Defaults(), err
	}
	p, exact := set.Match(runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	t := Derive(p, exact)
	t.Source = src + ": " + t.Source
	Apply(t)
	return t, nil
}
