// Command stressvet is the project's static-analysis multichecker: it runs
// the internal/lint analyzer suite — noalloc, determinism, floatcmp,
// lockcheck, workerbound — over the module's packages and exits non-zero on
// any finding, turning the hot-path, determinism, and cache-discipline
// invariants into build-time contracts. With -escape it additionally runs
// the compiler gates: it builds the packages with -gcflags=-m and fails if
// the compiler proves a heap allocation inside any //stressvet:noalloc
// function (the static form of the runtime allocs/op assertions), and it
// rebuilds the packages that hold //stressvet:bce N kernels with
// -d=ssa/check_bce/debug=1 and fails if one holds more than N bounds
// checks.
//
// Usage:
//
//	go run ./cmd/stressvet ./...                 # AST analyzers
//	go run ./cmd/stressvet -escape ./...         # + compiler escape and bounds-check gates
//	go run ./cmd/stressvet -disable floatcmp ./internal/solver/
//	go run ./cmd/stressvet -list
//
// Annotation grammar and suppression rules: docs/STATIC_ANALYSIS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stressvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	escape := fs.Bool("escape", false, "also run the compiler gates: -gcflags=-m escape over //stressvet:noalloc functions, bounds checks over //stressvet:bce N functions")
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("C", ".", "module directory to analyze from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	disabled := make(map[string]bool)
	for _, name := range strings.Split(*disable, ",") {
		if name = strings.TrimSpace(name); name != "" {
			disabled[name] = true
		}
	}
	known := make(map[string]bool)
	var analyzers []*lint.Analyzer
	for _, a := range all {
		known[a.Name] = true
		if !disabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	for name := range disabled {
		if !known[name] {
			fmt.Fprintf(stderr, "stressvet: unknown analyzer %q in -disable (have: noalloc, determinism, floatcmp, lockcheck, workerbound)\n", name)
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.LoadPatterns(*dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "stressvet:", err)
		return 2
	}
	findings := lint.RunPackages(pkgs, analyzers)
	if *escape {
		gates := []func(string, []string) ([]lint.Finding, error){lint.EscapeCheck, lint.BCECheck}
		if disabled["noalloc"] {
			gates = gates[1:]
		}
		for _, gate := range gates {
			f, err := gate(*dir, patterns)
			if err != nil {
				fmt.Fprintln(stderr, "stressvet:", err)
				return 2
			}
			findings = append(findings, f...)
		}
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(stderr, "stressvet: %d finding(s)\n", n)
		return 1
	}
	fmt.Fprintf(stdout, "stressvet: %d package(s) clean (%d analyzers%s)\n",
		len(pkgs), len(analyzers), map[bool]string{true: " + compiler gates", false: ""}[*escape])
	return 0
}
