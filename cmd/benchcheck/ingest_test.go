package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/solver/tuning"
)

// ingestBaseline pins a linux/amd64/n1 profile with bench rows and a loadgen
// section, mirroring the real snapshot's shape.
const ingestBaseline = `{
  "schema": "bench-global/v2",
  "pr": 10,
  "benchmarks": {
    "BenchmarkBatchEngine": { "unit": "ns/op", "value": 900000, "allocs_per_op": 4096 }
  },
  "host_profiles": {
    "linux/amd64/n1": {
      "goos": "linux", "goarch": "amd64", "nproc": 1,
      "benchmarks": {
        "BenchmarkBatchEngine": { "unit": "ns/op", "value": 900000, "allocs_per_op": 4096 },
        "BenchmarkIC0Apply": { "unit": "ns/op", "values": {
          "narrowDAG-multicolor/serial": 1300000, "narrowDAG-multicolor/levelsched-pool": 1250000 } }
      },
      "loadgen": {
        "solve": { "count": 1000, "errors": 0, "rejected": 0,
          "p50_ms": 20, "p95_ms": 60, "p99_ms": 100, "max_ms": 200, "throughput_rps": 40 }
      }
    }
  }
}`

const ingestBenchOutput = `
goos: linux
goarch: amd64
BenchmarkBatchEngine   	     682	   850000 ns/op	 2101736 B/op	    1192 allocs/op
BenchmarkIC0Apply/narrowDAG-multicolor/serial        	     492	   1280000 ns/op	       0 B/op	       0 allocs/op
BenchmarkIC0Apply/narrowDAG-multicolor/levelsched-pool 	     924	   1210000 ns/op	       0 B/op	       0 allocs/op
BenchmarkBlockedMulVec/blocked/serial        	     500	   830000 ns/op	       0 B/op	       0 allocs/op
BenchmarkBlockedMulVec/blocked/par           	     500	   910000 ns/op	      64 B/op	      10 allocs/op
PASS
`

const ingestLoadgenReport = `{
  "schema": "loadgen-report/v1",
  "target": "http://127.0.0.1:0",
  "endpoints": {
    "solve": { "count": 2000, "errors": 0, "rejected": 3,
      "p50_ms": 18, "p95_ms": 55, "p99_ms": 90, "max_ms": 180, "throughput_rps": 45 },
    "batch": { "count": 200, "errors": 0, "rejected": 0,
      "p50_ms": 80, "p95_ms": 150, "p99_ms": 220, "max_ms": 400, "throughput_rps": 4 }
  }
}`

// writeIngestFixture lays a baseline + artifacts into a temp dir and returns
// their paths plus the parsed baseline.
func writeIngestFixture(t *testing.T) (dir, basePath string, raw []byte, base *baseline) {
	t.Helper()
	dir = t.TempDir()
	basePath = filepath.Join(dir, "BENCH_global.json")
	raw = []byte(ingestBaseline)
	if err := os.WriteFile(basePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := parseBaseline(raw)
	if err != nil {
		t.Fatal(err)
	}
	return dir, basePath, raw, base
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestIngestRoundTrip is the acceptance proof for the measurement loop: a
// bench artifact and a loadgen report fold into the host profile, and the
// written baseline re-parses with the new rows and untouched key order.
func TestIngestRoundTrip(t *testing.T) {
	dir, basePath, raw, base := writeIngestFixture(t)
	bench := writeFile(t, dir, "bench.txt", ingestBenchOutput)
	report := writeFile(t, dir, "loadgen.json", ingestLoadgenReport)

	err := runIngest(basePath, raw, base, ingestConfig{
		Files:     []string{bench, report},
		Profile:   "linux/amd64/n1",
		Tolerance: 3.0,
		Write:     true,
	})
	if err != nil {
		t.Fatalf("runIngest: %v", err)
	}

	rewritten, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	base2, err := parseBaseline(rewritten)
	if err != nil {
		t.Fatalf("written baseline fails its own schema: %v", err)
	}
	p := base2.HostProfiles["linux/amd64/n1"]
	if p == nil {
		t.Fatal("written baseline lost the host profile")
	}
	if e := p.Benchmarks["BenchmarkBatchEngine"]; e == nil || e.Value == nil || *e.Value != 850000 {
		t.Errorf("BatchEngine not updated: %+v", e)
	}
	if e := p.Benchmarks["BenchmarkBlockedMulVec"]; e == nil || e.Values["blocked/par"] != 910000 {
		t.Errorf("BlockedMulVec rows not ingested: %+v", e)
	}
	if p.Loadgen["batch"] == nil || p.Loadgen["batch"].P99MS != 220 {
		t.Errorf("loadgen batch endpoint not ingested: %+v", p.Loadgen)
	}
	if p.Loadgen["solve"] == nil || p.Loadgen["solve"].P99MS != 90 {
		t.Errorf("loadgen solve endpoint not refreshed: %+v", p.Loadgen)
	}
	if p.UpdatedPR != base.PR {
		t.Errorf("UpdatedPR = %d, want %d", p.UpdatedPR, base.PR)
	}
	// The untouched parts of the file keep their bytes: key order intact.
	if at, schemaAt := strings.Index(string(rewritten), `"benchmarks"`), strings.Index(string(rewritten), `"schema"`); at < schemaAt {
		t.Error("splice reordered top-level keys")
	}
}

// TestIngestGateFailures: injected regressions must exit non-zero and leave
// the baseline untouched.
func TestIngestGateFailures(t *testing.T) {
	cases := map[string]struct {
		artifact string // file content
		json     bool
		want     string
	}{
		"ns/op regression": {
			artifact: strings.Replace(ingestBenchOutput, "682	   850000 ns/op", "682	   2800000 ns/op", 1),
			want:     "ingest regression",
		},
		"allocs ceiling broken": {
			artifact: strings.Replace(ingestBenchOutput, "1192 allocs/op", "9000 allocs/op", 1),
			want:     "ingest regression",
		},
		"loadgen p99 regression": {
			artifact: strings.Replace(ingestLoadgenReport, `"p99_ms": 90`, `"p99_ms": 400`, 1),
			json:     true,
			want:     "ingest regression",
		},
		"unknown JSON artifact": {
			artifact: `{"schema":"something/v1","endpoints":{"solve":{}}}`,
			json:     true,
			want:     "loadgen-report/v1",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir, basePath, raw, base := writeIngestFixture(t)
			ext := ".txt"
			if tc.json {
				ext = ".json"
			}
			artifact := writeFile(t, dir, "artifact"+ext, tc.artifact)
			err := runIngest(basePath, raw, base, ingestConfig{
				Files:     []string{artifact},
				Profile:   "linux/amd64/n1",
				Tolerance: 3.0,
				Write:     true,
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			after, readErr := os.ReadFile(basePath)
			if readErr != nil || string(after) != ingestBaseline {
				t.Error("failed gate rewrote the baseline")
			}
		})
	}
}

// TestIngestFirstMeasurementNewProfile: a platform with no pinned profile
// has nothing to gate against; ingest creates the profile.
func TestIngestFirstMeasurementNewProfile(t *testing.T) {
	dir, basePath, raw, base := writeIngestFixture(t)
	bench := writeFile(t, dir, "bench.txt", ingestBenchOutput)
	err := runIngest(basePath, raw, base, ingestConfig{
		Files:     []string{bench},
		Profile:   "darwin/arm64/n8",
		Tolerance: 3.0,
		Write:     true,
	})
	if err != nil {
		t.Fatalf("runIngest: %v", err)
	}
	rewritten, _ := os.ReadFile(basePath)
	base2, err := parseBaseline(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	p := base2.HostProfiles["darwin/arm64/n8"]
	if p == nil || p.GOOS != "darwin" || p.NProc != 8 {
		t.Fatalf("new profile not created: %+v", p)
	}
	if base2.HostProfiles["linux/amd64/n1"] == nil {
		t.Error("existing profile lost")
	}
}

// TestIngestInexactGate: measurements from an unseen core count gate against
// the nearest same-platform profile (the tolerance absorbs the host gap).
func TestIngestInexactGate(t *testing.T) {
	dir, basePath, raw, base := writeIngestFixture(t)
	slow := strings.Replace(ingestBenchOutput, "682	   850000 ns/op", "682	   2800000 ns/op", 1)
	bench := writeFile(t, dir, "bench.txt", slow)
	err := runIngest(basePath, raw, base, ingestConfig{
		Files:     []string{bench},
		Profile:   "linux/amd64/n4",
		Tolerance: 3.0,
	})
	if err == nil || !strings.Contains(err.Error(), "ingest regression") {
		t.Fatalf("regression vs nearest profile not gated: %v", err)
	}
}

func TestSplitProfileKey(t *testing.T) {
	goos, goarch, nproc, err := splitProfileKey("linux/amd64/n4")
	if err != nil || goos != "linux" || goarch != "amd64" || nproc != 4 {
		t.Errorf("splitProfileKey = %s/%s/%d, %v", goos, goarch, nproc, err)
	}
	for _, bad := range []string{"", "linux/amd64", "linux/amd64/4", "linux/amd64/n0", "linux/amd64/nx", "/amd64/n4"} {
		if _, _, _, err := splitProfileKey(bad); err == nil {
			t.Errorf("splitProfileKey(%q) accepted", bad)
		}
	}
}

func TestFoldBenchEntries(t *testing.T) {
	folded := foldBenchEntries(parseBenchOutput(ingestBenchOutput))
	if len(folded) != 3 {
		t.Fatalf("folded %d entries, want 3: %v", len(folded), folded)
	}
	be := folded["BenchmarkBatchEngine"]
	if be == nil || be.Value == nil || *be.Value != 850000 || be.AllocsPerOp == nil || *be.AllocsPerOp != 1192 {
		t.Errorf("BatchEngine entry: %+v", be)
	}
	mv := folded["BenchmarkBlockedMulVec"]
	if mv == nil || mv.Value != nil || len(mv.Values) != 2 || mv.Values["blocked/serial"] != 830000 {
		t.Errorf("BlockedMulVec entry: %+v", mv)
	}
	// Worst allocs across sub rows becomes the entry ceiling.
	if mv.AllocsPerOp == nil || *mv.AllocsPerOp != 10 {
		t.Errorf("BlockedMulVec allocs ceiling: %+v", mv.AllocsPerOp)
	}
}

// TestSpliceHostProfiles: replace-in-place keeps surrounding bytes; append
// adds the section before the closing brace.
func TestSpliceHostProfiles(t *testing.T) {
	set := tuning.Set{"linux/amd64/n2": &tuning.HostProfile{GOOS: "linux", GOARCH: "amd64", NProc: 2}}
	replaced, err := spliceHostProfiles([]byte(ingestBaseline), set)
	if err != nil {
		t.Fatal(err)
	}
	base, err := parseBaseline(replaced)
	if err != nil {
		t.Fatalf("spliced baseline invalid: %v", err)
	}
	if len(base.HostProfiles) != 1 || base.HostProfiles["linux/amd64/n2"] == nil {
		t.Errorf("replace did not swap the section: %v", base.HostProfiles)
	}

	noSection := `{
  "schema": "bench-global/v2",
  "pr": 10,
  "benchmarks": { "BenchmarkX": { "unit": "ns/op", "value": 1 } }
}`
	appended, err := spliceHostProfiles([]byte(noSection), set)
	if err != nil {
		t.Fatal(err)
	}
	base, err = parseBaseline(appended)
	if err != nil {
		t.Fatalf("appended baseline invalid: %v", err)
	}
	if base.HostProfiles["linux/amd64/n2"] == nil {
		t.Error("append did not add the section")
	}
	var asMap map[string]json.RawMessage
	if err := json.Unmarshal(appended, &asMap); err != nil {
		t.Fatalf("appended file is not valid JSON: %v", err)
	}
}
