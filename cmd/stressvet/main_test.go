package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays down a throwaway module so the tests exercise the full
// load-analyze-report path without touching the real repository.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goMod = "module scratch\n\ngo 1.24\n"

const cleanSrc = `package scratch

func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
`

func TestCleanModulePasses(t *testing.T) {
	dir := writeModule(t, map[string]string{"go.mod": goMod, "a.go": cleanSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d on clean module; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "clean") {
		t.Errorf("missing clean summary in output: %q", stdout.String())
	}
}

// TestInjectedViolationFails is the acceptance check that a fresh violation
// actually fails the build: the clean module plus one float equality, one
// ad-hoc goroutine, and one allocation in a noalloc function must exit 1.
func TestInjectedViolationFails(t *testing.T) {
	const badSrc = `package scratch

func Equal(a, b float64) bool {
	return a == b
}

func Spawn(f func()) {
	go f()
}

//stressvet:noalloc
func Hot(n int) []float64 {
	return make([]float64, n)
}
`
	dir := writeModule(t, map[string]string{"go.mod": goMod, "a.go": cleanSrc, "bad.go": badSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on module with violations, want 1; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, wantAnalyzer := range []string{"floatcmp", "workerbound", "noalloc"} {
		if !strings.Contains(stdout.String(), "["+wantAnalyzer+"]") {
			t.Errorf("no %s finding reported; output:\n%s", wantAnalyzer, stdout.String())
		}
	}
}

func TestDisableFlag(t *testing.T) {
	const badSrc = `package scratch

func Equal(a, b float64) bool {
	return a == b
}
`
	dir := writeModule(t, map[string]string{"go.mod": goMod, "bad.go": badSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-disable", "floatcmp", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d with floatcmp disabled, want 0; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if code := run([]string{"-C", dir, "-disable", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d on unknown -disable name, want 2", code)
	}
}

// TestEscapeGateFlag checks that -escape runs both compiler gates: the
// escape gate and the bounds-check gate.
func TestEscapeGateFlag(t *testing.T) {
	const escSrc = `package scratch

//stressvet:noalloc
func Leak() *int {
	x := 42
	return &x
}

//stressvet:bce 0
func Pair(s []float64, i int) float64 {
	return s[i] + s[i+1]
}
`
	dir := writeModule(t, map[string]string{"go.mod": goMod, "esc.go": escSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-escape", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d with escaping noalloc function, want 1; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "noalloc/escape") {
		t.Errorf("no escape-gate finding; output:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "[bce]") {
		t.Errorf("no bounds-check-gate finding; output:\n%s", stdout.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d from -list", code)
	}
	for _, name := range []string{"noalloc", "determinism", "floatcmp", "lockcheck", "workerbound"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}
