package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// BCECheck holds the bounds-check budget of the kernels annotated
// //stressvet:bce N. It rebuilds the packages that hold such functions with
// -gcflags=-d=ssa/check_bce/debug=1, which makes the compiler print every
// bounds check it leaves in, and reports each annotated function holding
// more than N distinct checks (one per source position, however many
// instantiations a generic function has). A count that is not a
// non-negative integer is itself a finding. Like the escape gate, warm runs
// replay the compiler's cached diagnostics.
func BCECheck(dir string, patterns []string) ([]Finding, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var (
		spans    []bceSpan
		findings []Finding
		pkgs     []string
	)
	err = parseModuleFiles(dir, patterns, func(importPath, path string, fset *token.FileSet, f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			arg, ok := directiveArg(fd.Doc, "bce")
			if !ok {
				continue
			}
			pos := fset.Position(fd.Pos())
			budget, err := strconv.Atoi(arg)
			if err != nil || budget < 0 {
				findings = append(findings, Finding{Pos: pos, Analyzer: "bce",
					Message: fmt.Sprintf("stressvet:bce on %s wants a non-negative bounds-check count, got %q", fd.Name.Name, arg)})
				continue
			}
			spans = append(spans, bceSpan{
				funcSpan: funcSpan{file: path, start: pos.Line, end: fset.Position(fd.End()).Line, name: fd.Name.Name},
				pos:      pos,
				budget:   budget,
			})
			if len(pkgs) == 0 || pkgs[len(pkgs)-1] != importPath {
				pkgs = append(pkgs, importPath)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return findings, nil
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-d=ssa/check_bce/debug=1"}, pkgs...)...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go build -d=ssa/check_bce: %v\n%s", err, out.String())
	}
	findings = append(findings, matchBCE(dir, out.String(), spans)...)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return findings, nil
}

// bceSpan is one //stressvet:bce function and its bounds-check budget.
type bceSpan struct {
	funcSpan
	pos    token.Position
	budget int
}

// matchBCE counts the compiler's distinct bounds-check positions inside each
// annotated span and reports the spans over budget.
func matchBCE(dir, output string, spans []bceSpan) []Finding {
	checks := make([]map[string]bool, len(spans))
	for _, line := range strings.Split(output, "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || !strings.HasPrefix(m[4], "Found Is") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		lineNo, _ := strconv.Atoi(m[2])
		for k, s := range spans {
			if s.file == file && lineNo >= s.start && lineNo <= s.end {
				if checks[k] == nil {
					checks[k] = make(map[string]bool)
				}
				checks[k][m[2]+":"+m[3]] = true
				break
			}
		}
	}
	var out []Finding
	for k, s := range spans {
		if n := len(checks[k]); n > s.budget {
			at := make([]string, 0, n)
			for p := range checks[k] {
				at = append(at, p)
			}
			sort.Strings(at)
			out = append(out, Finding{Pos: s.pos, Analyzer: "bce",
				Message: fmt.Sprintf("%s holds %d bounds checks, over its //stressvet:bce budget of %d (at %s)",
					s.name, n, s.budget, strings.Join(at, ", "))})
		}
	}
	return out
}
