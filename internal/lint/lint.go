// Package lint implements stressvet, the project's static-analysis suite:
// a set of analyzers that machine-check the invariants the performance core
// is built on — allocation-free hot paths, bitwise-deterministic kernels,
// mutex discipline on the byte-accounted caches, and bounded concurrency —
// on every build instead of only on the code paths the runtime tests happen
// to exercise.
//
// The package is self-contained on the standard library (go/ast, go/types,
// export data via `go list -export`), deliberately mirroring the
// golang.org/x/tools go/analysis idiom — Analyzer, Pass, Reportf, and
// analysistest-style `// want` fixtures under testdata/ — so the suite can
// be ported to a real multichecker wholesale if the x/tools dependency ever
// becomes available to the build environment.
//
// # Annotation grammar
//
// Three comment directives drive the suite (docs/STATIC_ANALYSIS.md has the
// full catalog):
//
//	//stressvet:noalloc
//	    On a function declaration: the function is an allocation-free hot
//	    path. The noalloc analyzer rejects allocating constructs in its
//	    body, and the escape gate (EscapeCheck) verifies the compiler
//	    agrees. Code under a panic(...) call is exempt (cold path).
//
//	//stressvet:gang -- <justification>
//	    On a function declaration: the function is an approved bounded
//	    worker-pool/gang primitive and may contain `go` statements. The
//	    workerbound analyzer flags every spawn outside one.
//
//	//stressvet:allow <analyzer> -- <justification>
//	    Suppresses the named analyzer's findings on the directive's own
//	    line and the line below it. The justification is mandatory: an
//	    allow without ` -- <why>` suppresses nothing and is itself
//	    reported.
//
//	// guarded by <field>
//	    On a struct field: the field may only be accessed while the
//	    struct's <field> mutex is held (lockcheck analyzer).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. Run inspects a single package and
// reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in findings, -disable flags, and
	// stressvet:allow directives.
	Name string
	// Doc is the one-line description shown by `stressvet -list`.
	Doc string
	// Run performs the analysis on one type-checked package.
	Run func(*Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed sources (comments included).
	Files []*ast.File
	// Pkg and Info carry the go/types results.
	Pkg  *types.Package
	Info *types.Info
	// Path is the import path the package was analyzed as. Fixture
	// packages may be loaded under an assumed path so path-scoped
	// analyzers (determinism) see them as kernel packages.
	Path string

	diags *[]Diagnostic
}

// Diagnostic is one raw finding, pre-suppression.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Finding is a resolved diagnostic with its position materialized.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// isTestFile reports whether pos lies in a *_test.go file.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// directivePrefix opens every stressvet comment directive.
const directivePrefix = "//stressvet:"

// hasDirective reports whether the comment group carries the named stressvet
// directive (e.g. name "noalloc" matches "//stressvet:noalloc").
func hasDirective(doc *ast.CommentGroup, name string) bool {
	_, ok := directiveArg(doc, name)
	return ok
}

// directiveArg returns the argument of the named stressvet directive in doc
// ("5" for "//stressvet:bce 5"), up to any " -- " justification.
func directiveArg(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, directivePrefix)
		if !ok {
			continue
		}
		// The directive word ends at the first space or " -- " separator.
		word, rest, _ := strings.Cut(text, " ")
		if word == name {
			arg, _, _ := strings.Cut(rest, " -- ")
			return strings.TrimSpace(arg), true
		}
	}
	return "", false
}

// allowSet records, per file line, the analyzers suppressed on that line by
// stressvet:allow directives.
type allowSet map[int]map[string]bool

// badDirective is a malformed stressvet comment found while collecting
// suppressions; the driver reports these as findings of the "stressvet"
// pseudo-analyzer so a typoed allow cannot silently disarm a check.
type badDirective struct {
	pos token.Pos
	msg string
}

// collectAllows parses the stressvet:allow directives of a file. An allow
// suppresses the named analyzer on the directive's own line (trailing
// comment) and the following line (own-line comment). The justification
// after " -- " is mandatory.
func collectAllows(fset *token.FileSet, f *ast.File) (allowSet, []badDirective) {
	allows := make(allowSet)
	var bad []badDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			word, rest, _ := strings.Cut(text, " ")
			if word != "allow" {
				continue
			}
			name, just, found := strings.Cut(rest, " -- ")
			name = strings.TrimSpace(name)
			if name == "" {
				bad = append(bad, badDirective{c.Pos(), "stressvet:allow names no analyzer"})
				continue
			}
			if !found || strings.TrimSpace(just) == "" {
				bad = append(bad, badDirective{c.Pos(), fmt.Sprintf("stressvet:allow %s has no ` -- <justification>`; the finding stays live", name)})
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, l := range []int{line, line + 1} {
				if allows[l] == nil {
					allows[l] = make(map[string]bool)
				}
				allows[l][name] = true
			}
		}
	}
	return allows, bad
}

// RunPackages runs the analyzers over the packages, applies the
// stressvet:allow suppressions, and returns the surviving findings sorted by
// position. Malformed directives surface as findings of the "stressvet"
// pseudo-analyzer.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
				diags:    &diags,
			})
		}
		// Suppressions are per file; index the allow sets by filename.
		allowsByFile := make(map[string]allowSet)
		for _, f := range pkg.Files {
			allows, bad := collectAllows(pkg.Fset, f)
			allowsByFile[pkg.Fset.Position(f.Pos()).Filename] = allows
			for _, b := range bad {
				out = append(out, Finding{Pos: pkg.Fset.Position(b.pos), Analyzer: "stressvet", Message: b.msg})
			}
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if allowsByFile[pos.Filename][pos.Line][d.Analyzer] {
				continue
			}
			out = append(out, Finding{Pos: pos, Analyzer: d.Analyzer, Message: d.Message})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// Analyzers returns the full stressvet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoAlloc, Determinism, FloatCmp, LockCheck, WorkerBound}
}
