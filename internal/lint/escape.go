package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// EscapeCheck is the static complement to the noalloc AST rules: it builds
// the matched packages with -gcflags=-m, parses the compiler's escape
// diagnostics, and reports every heap allocation the compiler proves inside
// a //stressvet:noalloc-annotated function. Where the AST rules reject
// allocating *constructs*, this gate asks the authority — the escape
// analysis that decides what actually hits the heap — so a construct the
// AST rules miss (or a future compiler change) cannot silently regress the
// zero-allocation contract. stressvet:allow noalloc suppressions apply here
// too. The toolchain replays cached -m diagnostics, so warm runs are cheap.
func EscapeCheck(dir string, patterns []string) ([]Finding, error) {
	// The compiler prints package-relative paths; anchor them (and the spans,
	// which go list reports absolute) to one absolute base.
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	spans, allows, err := noallocSpans(dir, patterns)
	if err != nil {
		return nil, err
	}
	if len(spans) == 0 {
		return nil, nil
	}
	args := append([]string{"build", "-gcflags=-m=1"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go build -gcflags=-m: %v\n%s", err, out.String())
	}
	return matchEscapes(dir, out.String(), spans, allows), nil
}

// funcSpan is the file range of one annotated function.
type funcSpan struct {
	file       string // absolute path
	start, end int    // line range, inclusive
	name       string
	// panicLines are lines covered by panic(...) call subtrees — cold
	// paths, exempt exactly as in the AST rule (error formatting on the way
	// to a crash may allocate).
	panicLines map[int]bool
}

// noallocSpans parses the packages' sources (comments only — no type
// checking needed) and returns the line spans of //stressvet:noalloc
// functions plus the per-file stressvet:allow line sets.
func noallocSpans(dir string, patterns []string) ([]funcSpan, map[string]allowSet, error) {
	var spans []funcSpan
	allows := make(map[string]allowSet)
	err := parseModuleFiles(dir, patterns, func(_, path string, fset *token.FileSet, f *ast.File) {
		fileAllows, _ := collectAllows(fset, f)
		if len(fileAllows) > 0 {
			allows[path] = fileAllows
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "noalloc") {
				continue
			}
			spans = append(spans, funcSpan{
				file:       path,
				start:      fset.Position(fd.Pos()).Line,
				end:        fset.Position(fd.End()).Line,
				name:       fd.Name.Name,
				panicLines: panicLines(fset, fd),
			})
		}
	})
	return spans, allows, err
}

// parseModuleFiles parses, comments included, every Go file of the
// module's packages that patterns match (and of their in-module
// dependencies) and hands each to visit with its package's import path.
func parseModuleFiles(dir string, patterns []string, visit func(importPath, path string, fset *token.FileSet, f *ast.File)) error {
	entries, err := goList(dir, patterns)
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.Standard || e.Module == nil {
			continue
		}
		for _, name := range e.GoFiles {
			path := filepath.Join(e.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("lint: %v", err)
			}
			visit(e.ImportPath, path, fset, f)
		}
	}
	return nil
}

// panicLines returns the lines of fd's body covered by panic(...) calls.
// This is a parse-only scan, so a shadowed `panic` identifier would slip
// through; the AST analyzer, which resolves the builtin properly, still
// flags such code.
func panicLines(fset *token.FileSet, fd *ast.FuncDecl) map[int]bool {
	var out map[int]bool
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			if out == nil {
				out = make(map[int]bool)
			}
			for l := fset.Position(call.Pos()).Line; l <= fset.Position(call.End()).Line; l++ {
				out[l] = true
			}
			return false
		}
		return true
	})
	return out
}

// escapeLine matches one compiler diagnostic: "file:line:col: message".
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// matchEscapes intersects the compiler's heap-allocation diagnostics with
// the annotated function spans.
func matchEscapes(dir, output string, spans []funcSpan, allows map[string]allowSet) []Finding {
	var out []Finding
	for _, line := range strings.Split(output, "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		for _, s := range spans {
			if s.file != file || lineNo < s.start || lineNo > s.end {
				continue
			}
			if allows[file][lineNo]["noalloc"] || s.panicLines[lineNo] {
				break
			}
			out = append(out, Finding{
				Pos:      token.Position{Filename: file, Line: lineNo, Column: col},
				Analyzer: "noalloc/escape",
				Message:  fmt.Sprintf("compiler proves a heap allocation in //stressvet:noalloc %s: %s", s.name, msg),
			})
			break
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}
