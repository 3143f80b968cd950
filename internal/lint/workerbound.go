package lint

import (
	"go/ast"
)

// WorkerBound confines goroutine creation to the approved bounded
// primitives: a `go` statement in non-test code is only legal inside a
// function annotated //stressvet:gang -- <justification>. Parallel compute
// goes through sparse.Pool (repeated kernels) or sparse.ForEach (one-shot
// loops); the other annotated spawn points are lifecycle and I/O (the job
// queue's workers, the servers, the router's fan-outs). Everything else is
// ad-hoc concurrency that can oversubscribe the serving layer, so it fails
// the build until the fan-out is either routed through one of the two or
// explicitly annotated and justified.
var WorkerBound = &Analyzer{
	Name: "workerbound",
	Doc:  "confine `go` statements to //stressvet:gang-annotated worker-pool primitives",
	Run:  runWorkerBound,
}

func runWorkerBound(p *Pass) {
	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasDirective(fd.Doc, "gang") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf(g.Pos(), "go statement outside an approved worker-pool primitive; route through sparse.ForEach (one-shot loops) or sparse.Pool (repeated kernels), or annotate the spawning function `//stressvet:gang -- <why the fan-out is bounded>`")
				}
				return true
			})
		}
	}
}
