package tuning

import (
	"runtime"
	"testing"

	"repro/internal/solver"
)

// sampleSet builds a two-profile set: a single-thread host (mirroring the
// dev container) and a 4-core host.
func sampleSet() Set {
	return Set{
		"linux/amd64/n1": &HostProfile{GOOS: "linux", GOARCH: "amd64", NProc: 1},
		"linux/amd64/n4": &HostProfile{GOOS: "linux", GOARCH: "amd64", NProc: 4},
	}
}

func TestMatchExactAndNearest(t *testing.T) {
	set := sampleSet()
	p, exact := set.Match("linux", "amd64", 1)
	if p == nil || !exact || p.NProc != 1 {
		t.Fatalf("Match(n1) = %+v exact=%v, want exact n1", p, exact)
	}
	p, exact = set.Match("linux", "amd64", 8)
	if p == nil || exact || p.NProc != 4 {
		t.Fatalf("Match(n8) = %+v exact=%v, want inexact n4", p, exact)
	}
	// nproc=2 sits between the profiles: n1 (distance 1) beats n4
	// (distance 2).
	p, exact = set.Match("linux", "amd64", 2)
	if p == nil || exact || p.NProc != 1 {
		t.Fatalf("Match(n2) = %+v exact=%v, want inexact n1", p, exact)
	}
	if p, _ := set.Match("darwin", "arm64", 8); p != nil {
		t.Fatalf("Match(darwin/arm64) = %+v, want nil", p)
	}
}

func TestParseFullFileAndBareSnapshot(t *testing.T) {
	full := []byte(`{
		"schema": "bench-global/v2", "pr": 10,
		"benchmarks": {"BenchmarkX": {"unit": "ns/op", "value": 1}},
		"host_profiles": {
			"linux/amd64/n1": {"goos": "linux", "goarch": "amd64", "nproc": 1}
		}
	}`)
	set, err := Parse(full)
	if err != nil || len(set) != 1 {
		t.Fatalf("Parse(full file) = %v, %v", set, err)
	}
	// A bare host_profiles object (the format of the deleted embedded
	// snapshot) carries no schema and is rejected.
	if _, err := Parse([]byte(`{"linux/amd64/n2": {"goos": "linux", "goarch": "amd64", "nproc": 2}}`)); err == nil {
		t.Fatal("bare host_profiles object should be rejected")
	}
	if _, err := Parse([]byte(`{"schema": "bench-global/v2", "pr": 10, "benchmarks": {}}`)); err != nil {
		t.Fatalf("v2 file without host_profiles should parse as empty set, got %v", err)
	}
	if _, err := Parse([]byte(`{"schema": "bench-global/v1", "pr": 9, "benchmarks": {}}`)); err == nil {
		t.Fatal("v1 file should be rejected")
	}
	v2 := func(profiles string) []byte {
		return []byte(`{"schema": "bench-global/v2", "pr": 10, "benchmarks": {}, "host_profiles": ` + profiles + `}`)
	}
	if _, err := Parse(v2(`{"linux/amd64/n4": {"goos": "linux", "goarch": "amd64", "nproc": 2}}`)); err == nil {
		t.Fatal("key/fields disagreement should be rejected")
	}
	if _, err := Parse(v2(`{"linux/amd64/n1": {"goos": "linux", "goarch": "amd64", "nproc": 1,
		"benchmarks": {"B": {"unit": "ns/op"}}}}`)); err == nil {
		t.Fatal("benchmark entry without value/values should be rejected")
	}
	// Unknown keys are errors, not silently dropped on the next -write: a
	// mistyped pin would otherwise disarm the allocs gate, and a leftover
	// block would vanish unnoticed.
	for _, bad := range []string{
		`{"linux/amd64/n1": {"goos": "linux", "goarch": "amd64", "nproc": 1,
			"benchmarks": {"B": {"unit": "ns/op", "value": 1, "allocs_per_opp": 0}}}}`,
		`{"linux/amd64/n1": {"goos": "linux", "goarch": "amd64", "nproc": 1,
			"tuning": {"matvec_par_speedup": 0.99}}}`,
	} {
		if _, err := Parse(v2(bad)); err == nil {
			t.Errorf("unknown key should be rejected: %s", bad)
		}
	}
}

// TestStartupIsNoOp: Startup reads and applies nothing — the solver's auto
// rules are constants — and never fails.
func TestStartupIsNoOp(t *testing.T) {
	if _, err := Startup("/nonexistent/profile.json"); err != nil {
		t.Errorf("Startup returned %v, want nil", err)
	}
	if got := solver.DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("solver.DefaultWorkers() = %d after Startup, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}
