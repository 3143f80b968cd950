package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockCheck enforces the `// guarded by <mu>` annotation on struct fields:
// within a function, every read or write of a guarded field must be
// preceded by a Lock or RLock call on the struct's named mutex, and guarded
// structs must not be copied by value (which would copy the mutex). The
// check is intra-procedural and lexical — a Lock anywhere earlier in the
// same function counts as held — so it catches the real failure mode
// (touching cache state with no lock in sight) without a false-positive
// storm from flow analysis. Escape hatches: functions whose name ends in
// "Locked" assert that their caller holds the lock, and accesses through
// locals constructed in the same function (constructors) are exempt because
// the value has not escaped yet.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "require the named mutex held when touching `// guarded by <mu>` struct fields; forbid mutex copies",
	Run:  runLockCheck,
}

var guardedBy = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardInfo describes one annotated struct: the mutex field and the set of
// fields it guards, all normalized to their generic origin so instantiated
// generics (OnceMap[K, V]) resolve to the same objects.
type guardInfo struct {
	structName string
	mu         *types.Var
	guarded    map[*types.Var]bool
}

func runLockCheck(p *Pass) {
	guards := collectGuards(p)
	if len(guards) == 0 {
		return
	}
	// guardedField maps every guarded field to its struct's info;
	// structOf maps the named struct types for copy checking.
	guardedField := make(map[*types.Var]*guardInfo)
	structTypes := make(map[*types.Named]*guardInfo)
	for named, gi := range guards {
		structTypes[named] = gi
		for f := range gi.guarded {
			guardedField[f] = gi
		}
	}
	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCopies(p, fd, structTypes)
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // caller-holds-the-lock convention
			}
			checkFuncAccesses(p, fd, guardedField)
		}
	}
}

// collectGuards scans the package's struct declarations for `// guarded by`
// field annotations.
func collectGuards(p *Pass) map[*types.Named]*guardInfo {
	out := make(map[*types.Named]*guardInfo)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj := p.Info.Defs[ts.Name]
			if obj == nil {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				return true
			}
			tStruct, ok := named.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			fieldVar := func(name string) *types.Var {
				for i := 0; i < tStruct.NumFields(); i++ {
					if v := tStruct.Field(i); v.Name() == name {
						return v.Origin()
					}
				}
				return nil
			}
			gi := &guardInfo{structName: ts.Name.Name, guarded: make(map[*types.Var]bool)}
			var muName string
			for _, field := range st.Fields.List {
				m := guardMatch(field)
				if m == "" {
					continue
				}
				if muName == "" {
					muName = m
				} else if muName != m {
					p.Reportf(field.Pos(), "struct %s names two different guard mutexes (%s, %s); lockcheck supports one", ts.Name.Name, muName, m)
					continue
				}
				for _, name := range field.Names {
					if v := fieldVar(name.Name); v != nil {
						gi.guarded[v] = true
					}
				}
			}
			if muName == "" {
				return true
			}
			mu := fieldVar(muName)
			if mu == nil || !isMutex(mu.Type()) {
				p.Reportf(ts.Pos(), "struct %s fields are `guarded by %s` but it has no sync.Mutex/RWMutex field of that name", ts.Name.Name, muName)
				return true
			}
			gi.mu = mu
			out[named] = gi
			return true
		})
	}
	return out
}

// guardMatch extracts the mutex name of a field's `guarded by` comment.
func guardMatch(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedBy.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func isMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkFuncAccesses verifies guarded-field accesses in one function against
// the Lock/RLock calls that lexically precede them.
func checkFuncAccesses(p *Pass, fd *ast.FuncDecl, guardedField map[*types.Var]*guardInfo) {
	// Pass 1: positions at which each guard mutex is locked.
	lockPos := make(map[*types.Var][]ast.Node)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := p.Info.Selections[muSel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if v, ok := s.Obj().(*types.Var); ok {
			lockPos[v.Origin()] = append(lockPos[v.Origin()], call)
		}
		return true
	})
	held := func(mu *types.Var, at ast.Node) bool {
		for _, l := range lockPos[mu] {
			if l.Pos() < at.Pos() {
				return true
			}
		}
		return false
	}
	// Pass 2: the guarded accesses themselves.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := p.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		gi, ok := guardedField[v.Origin()]
		if !ok {
			return true
		}
		if localReceiver(p, fd, sel.X) {
			return true // constructing a value that has not escaped yet
		}
		if !held(gi.mu, sel) {
			p.Reportf(sel.Pos(), "%s.%s is guarded by %s.%s, which is not locked in %s (lock it, or name the function *Locked if the caller holds it)",
				gi.structName, v.Name(), gi.structName, gi.mu.Name(), fd.Name.Name)
		}
		return true
	})
}

// localReceiver reports whether the access base resolves to a variable
// declared inside the function body — a freshly constructed value that no
// other goroutine can reach yet.
func localReceiver(p *Pass, fd *ast.FuncDecl, base ast.Expr) bool {
	for {
		switch b := ast.Unparen(base).(type) {
		case *ast.SelectorExpr:
			base = b.X
			continue
		case *ast.Ident:
			obj := p.Info.Uses[b]
			return obj != nil && obj.Pos() >= fd.Body.Pos() && obj.Pos() < fd.Body.End()
		default:
			return false
		}
	}
}

// checkCopies flags by-value uses of guarded structs: parameters, results,
// and assignments copying an existing value (fresh composite literals are
// construction, not copies).
func checkCopies(p *Pass, fd *ast.FuncDecl, structTypes map[*types.Named]*guardInfo) {
	guardedNamed := func(t types.Type) *guardInfo {
		if t == nil {
			return nil
		}
		named, ok := t.(*types.Named)
		if !ok {
			return nil
		}
		if gi, ok := structTypes[named]; ok {
			return gi
		}
		if gi, ok := structTypes[named.Origin()]; ok {
			return gi
		}
		return nil
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if gi := guardedNamed(p.Info.TypeOf(field.Type)); gi != nil {
				p.Reportf(field.Pos(), "%s passed by value copies its %s mutex; pass *%s", gi.structName, gi.mu.Name(), gi.structName)
			}
		}
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			if gi := guardedNamed(p.Info.TypeOf(field.Type)); gi != nil {
				p.Reportf(field.Pos(), "%s returned by value copies its %s mutex; return *%s", gi.structName, gi.mu.Name(), gi.structName)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
				continue // discarded, nothing is retained
			}
			rhs := ast.Unparen(rhs)
			if _, isLit := rhs.(*ast.CompositeLit); isLit {
				continue
			}
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
				continue
			}
			if gi := guardedNamed(p.Info.TypeOf(rhs)); gi != nil {
				p.Reportf(rhs.Pos(), "assignment copies %s by value (and its %s mutex); use a pointer", gi.structName, gi.mu.Name())
			}
		}
		return true
	})
}
