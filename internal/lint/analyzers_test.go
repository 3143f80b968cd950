package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// modDir anchors `go list` for fixture imports: the repository root.
const modDir = "../.."

func TestNoAlloc(t *testing.T) {
	linttest.Run(t, modDir, lint.NoAlloc, "testdata/src/noalloc", "repro/fixtures/noalloc")
}

func TestDeterminism(t *testing.T) {
	// Loaded under a kernel import path so the path-scoped analyzer runs.
	linttest.Run(t, modDir, lint.Determinism, "testdata/src/determinism", "repro/internal/sparse")
}

func TestDeterminismSkipsNonKernelPackages(t *testing.T) {
	pkg, err := lint.LoadDir(modDir, "testdata/src/determinism", "repro/fixtures/determinism")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lint.RunPackages([]*lint.Package{pkg}, []*lint.Analyzer{lint.Determinism}) {
		t.Errorf("determinism ran outside a kernel package: %s", f)
	}
}

func TestFloatCmp(t *testing.T) {
	linttest.Run(t, modDir, lint.FloatCmp, "testdata/src/floatcmp", "repro/fixtures/floatcmp")
}

func TestLockCheck(t *testing.T) {
	linttest.Run(t, modDir, lint.LockCheck, "testdata/src/lockcheck", "repro/fixtures/lockcheck")
}

func TestWorkerBound(t *testing.T) {
	linttest.Run(t, modDir, lint.WorkerBound, "testdata/src/workerbound", "repro/fixtures/workerbound")
}

// TestUnjustifiedAllow checks the driver's directive hygiene: an allow with
// no ` -- <justification>` suppresses nothing and is itself reported as a
// finding of the "stressvet" pseudo-analyzer.
func TestUnjustifiedAllow(t *testing.T) {
	pkg, err := lint.LoadDir(modDir, "testdata/src/directives", "repro/fixtures/directives")
	if err != nil {
		t.Fatal(err)
	}
	findings := lint.RunPackages([]*lint.Package{pkg}, []*lint.Analyzer{lint.NoAlloc})
	var gotBadDirective, gotSurvivingFinding, gotSuppressed bool
	for _, f := range findings {
		switch {
		case f.Analyzer == "stressvet" && strings.Contains(f.Message, "no ` -- <justification>`"):
			gotBadDirective = true
		case f.Analyzer == "noalloc" && f.Pos.Line == badAllowLine(t, pkg)+1:
			gotSurvivingFinding = true
		case f.Analyzer == "noalloc":
			gotSuppressed = true // a justified allow failed to suppress
		}
	}
	if !gotBadDirective {
		t.Errorf("no stressvet finding for the unjustified allow; findings: %v", findings)
	}
	if !gotSurvivingFinding {
		t.Errorf("the unjustified allow suppressed the noalloc finding; findings: %v", findings)
	}
	if gotSuppressed {
		t.Errorf("a justified allow failed to suppress its finding; findings: %v", findings)
	}
}

// badAllowLine locates the fixture line carrying the unjustified allow, so
// the test does not hard-code line numbers.
func badAllowLine(t *testing.T, pkg *lint.Package) int {
	t.Helper()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text == "//stressvet:allow noalloc" {
					return pkg.Fset.Position(c.Pos()).Line
				}
			}
		}
	}
	t.Fatal("fixture has no bare //stressvet:allow noalloc comment")
	return 0
}

// TestEscapeCheck runs the compiler escape gate over the noalloc fixture
// package, whose annotated functions all heap-allocate by construction.
func TestEscapeCheck(t *testing.T) {
	findings, err := lint.EscapeCheck(modDir, []string{"./internal/lint/testdata/src/noalloc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("escape gate found no heap allocations in a fixture full of them")
	}
	for _, f := range findings {
		if f.Analyzer != "noalloc/escape" {
			t.Errorf("unexpected analyzer %q in escape finding %s", f.Analyzer, f)
		}
		if !strings.Contains(f.Pos.Filename, "noalloc") {
			t.Errorf("escape finding outside the fixture: %s", f)
		}
	}
}

// TestBCECheck runs the bounds-check gate over its fixture package: the
// kernel over its budget and the malformed count are reported, the kernel
// within its budget and the unannotated function are not.
func TestBCECheck(t *testing.T) {
	findings, err := lint.BCECheck(modDir, []string{"./internal/lint/testdata/src/bce"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		if f.Analyzer != "bce" || !strings.Contains(f.Pos.Filename, "bce") {
			t.Errorf("unexpected finding %s", f)
		}
		got = append(got, f.Message)
	}
	if len(got) != 2 || !strings.Contains(got[0], "overBudget holds") || !strings.Contains(got[1], "malformed") {
		t.Errorf("findings %q, want overBudget over budget and malformed's count rejected", got)
	}
}
