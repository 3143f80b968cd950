package tuning

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/solver"
)

// sampleSet builds a two-profile set: a single-thread host with crossover
// data (mirroring the dev container) and a 4-core host where the measured
// fan-out pays.
func sampleSet() Set {
	return Set{
		"linux/amd64/n1": &HostProfile{
			GOOS: "linux", GOARCH: "amd64", NProc: 1,
			Tuning: &TuningData{
				PrecondCrossover: []CrossoverRow{
					{DoFs: 2709, IC0WarmMS: 14, BJ3WarmMS: 20},
					{DoFs: 9945, IC0WarmMS: 85, BJ3WarmMS: 140},
					{DoFs: 21717, IC0WarmMS: 239, BJ3WarmMS: 1257},
				},
				MatvecParSpeedup: 0.91,
			},
		},
		"linux/amd64/n4": &HostProfile{
			GOOS: "linux", GOARCH: "amd64", NProc: 4,
			Tuning: &TuningData{
				PrecondCrossover: []CrossoverRow{{DoFs: 9945, IC0WarmMS: 60, BJ3WarmMS: 90}},
				MatvecParSpeedup: 2.2,
			},
		},
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

func TestDeriveSingleThreadHost(t *testing.T) {
	set := sampleSet()
	p, exact := set.Match("linux", "amd64", 1)
	tun := Derive(p, exact)
	// Crossover at 2709 DoFs rounds down to 2500 — the hand-set value falls
	// out of the measured data.
	if tun.IC0Threshold != 2500 {
		t.Errorf("IC0Threshold = %d, want 2500 (derived from the 2709-DoF crossover)", tun.IC0Threshold)
	}
	// One hardware thread: workers capped at 1, which also keeps
	// OrderingAuto natural.
	if tun.Workers != 1 {
		t.Errorf("Workers = %d, want 1 on a single-thread host", tun.Workers)
	}
}

func TestDeriveMultiCoreHost(t *testing.T) {
	set := sampleSet()
	p, exact := set.Match("linux", "amd64", 4)
	tun := Derive(p, exact)
	if tun.IC0Threshold != 9500 {
		t.Errorf("IC0Threshold = %d, want 9500 (9945-DoF crossover rounded down)", tun.IC0Threshold)
	}
	if tun.Workers != 0 {
		t.Errorf("Workers = %d, want 0 (GOMAXPROCS fallback: measured par speedup > 1)", tun.Workers)
	}
}

func TestDeriveInexactMatchKeepsNprocSensitiveDefaults(t *testing.T) {
	set := sampleSet()
	p, exact := set.Match("linux", "amd64", 16) // nearest is n4, inexact
	tun := Derive(p, exact)
	if tun.IC0Threshold != 9500 {
		t.Errorf("IC0Threshold = %d, want 9500 (crossover transfers across nproc)", tun.IC0Threshold)
	}
	if tun.Workers != 0 {
		t.Errorf("inexact match derived workers=%d, want default 0", tun.Workers)
	}
}

func TestDeriveNilProfileIsDefaults(t *testing.T) {
	tun := Derive(nil, false)
	d := Defaults()
	if tun.IC0Threshold != d.IC0Threshold || tun.Workers != d.Workers {
		t.Errorf("Derive(nil) = %+v, want defaults %+v", tun, d)
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
	bare := []byte(`{"linux/amd64/n2": {"goos": "linux", "goarch": "amd64", "nproc": 2}}`)
	set, err = Parse(bare)
	if err != nil || set["linux/amd64/n2"] == nil {
		t.Fatalf("Parse(bare snapshot) = %v, %v", set, err)
	}
	if _, err := Parse([]byte(`{"schema": "bench-global/v2", "pr": 10, "benchmarks": {}}`)); err != nil {
		t.Fatalf("v2 file without host_profiles should parse as empty set, got %v", err)
	}
	if _, err := Parse([]byte(`{"schema": "bench-global/v1", "pr": 9, "benchmarks": {}}`)); err == nil {
		t.Fatal("v1 file should be rejected")
	}
	if _, err := Parse([]byte(`{"linux/amd64/n4": {"goos": "linux", "goarch": "amd64", "nproc": 2}}`)); err == nil {
		t.Fatal("key/fields disagreement should be rejected")
	}
	if _, err := Parse([]byte(`{"linux/amd64/n1": {"goos": "linux", "goarch": "amd64", "nproc": 1,
		"benchmarks": {"B": {"unit": "ns/op"}}}}`)); err == nil {
		t.Fatal("benchmark entry without value/values should be rejected")
	}
}

// TestApplyRoundTrip proves the acceptance wiring: a host-profile section
// resolves through Match/Derive/Apply into the live solver knobs, and
// clearing it restores the hand-set constants. Runs under -race in CI.
func TestApplyRoundTrip(t *testing.T) {
	defer Reset()
	set := sampleSet()
	p, exact := set.Match("linux", "amd64", 1)
	Apply(Derive(p, exact))
	if got := solver.AutoIC0Threshold(); got != 2500 {
		t.Errorf("solver.AutoIC0Threshold() = %d after Apply, want 2500", got)
	}
	if got := solver.DefaultWorkers(); got != 1 {
		t.Errorf("solver.DefaultWorkers() = %d after Apply, want 1", got)
	}
	Reset()
	if got := solver.AutoIC0Threshold(); got != solver.DefaultAutoIC0Threshold {
		t.Errorf("Reset left AutoIC0Threshold at %d", got)
	}
	if got := solver.DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Reset left DefaultWorkers at %d", got)
	}
}

func TestStartupEmbeddedSnapshot(t *testing.T) {
	defer Reset()
	// Whatever the embedded snapshot holds, Startup must parse it and apply
	// something coherent for this host without error.
	tun, err := Startup("")
	if err != nil {
		t.Fatalf("Startup(embedded) error: %v", err)
	}
	if tun.IC0Threshold <= 0 {
		t.Errorf("Startup applied non-positive IC0Threshold %d", tun.IC0Threshold)
	}
	if tun.Source == "" {
		t.Error("Startup returned empty Source")
	}
	if got := solver.AutoIC0Threshold(); got != tun.IC0Threshold {
		t.Errorf("solver knob %d disagrees with applied tunables %d", got, tun.IC0Threshold)
	}
}

func TestStartupFile(t *testing.T) {
	defer Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "tuning.json")
	hostKey := Key(runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	blob := `{"` + hostKey + `": {"goos": "` + runtime.GOOS + `", "goarch": "` + runtime.GOARCH + `",
		"nproc": ` + strconv.Itoa(runtime.NumCPU()) + `,
		"tuning": {"precond_crossover": [{"dofs": 7300, "ic0_warm_ms": 5, "bj3_warm_ms": 9}]}}}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	tun, err := Startup(path)
	if err != nil {
		t.Fatalf("Startup(%s) error: %v", path, err)
	}
	if tun.IC0Threshold != 7000 {
		t.Errorf("IC0Threshold = %d, want 7000 (7300 rounded down)", tun.IC0Threshold)
	}
	if got := solver.AutoIC0Threshold(); got != 7000 {
		t.Errorf("solver.AutoIC0Threshold() = %d, want 7000", got)
	}
	// Unreadable and invalid files keep the defaults and report the error.
	Reset()
	if _, err := Startup(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("Startup(missing file) should error")
	}
	if got := solver.AutoIC0Threshold(); got != solver.DefaultAutoIC0Threshold {
		t.Errorf("failed Startup changed AutoIC0Threshold to %d", got)
	}
}
