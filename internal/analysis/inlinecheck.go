package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// InlineCheck holds every wire.ServeInline call site to its word. The ops a
// call site lists after the worker count are run by the connection's reader
// goroutine itself, so a handler among them that waits — on a WAL ticket, on
// another RPC, on a channel — stops every other request on that connection
// for as long as it waits. For each listed op the rule starts at the handler
// the call site passes, takes only that op's clause wherever it meets a
// switch over the wire op constants (dispatch), follows package-local calls
// by name, and reports any call on the way that lockheld's classifier names
// as blocking (Call/CallOnce, dials, frame I/O, Wait, sleeps), any channel
// send or receive, and any select without a default.
//
// Like the rest of the suite the walk is syntactic: callees are resolved by
// name within the package (a method name shared by two types is walked for
// both, the conservative direction), calls into other packages are judged by
// their name alone, and mutex acquisition is not a finding — a read lock on
// the store is what an inline lookup is. Bodies started with `go` are not the
// reader's and are skipped.
type InlineCheck struct {
	// Packages lists root-relative package paths whose ServeInline call
	// sites are checked.
	Packages []string
}

// Name implements Analyzer.
func (*InlineCheck) Name() string { return "inlinecheck" }

// Doc implements Analyzer.
func (*InlineCheck) Doc() string {
	return "ops a ServeInline call site runs on the reader reach no blocking call"
}

const serveInlineFunc = "ServeInline"

// Run implements Analyzer.
func (a *InlineCheck) Run(m *Module) []Diagnostic {
	r := &reporter{fset: m.Fset, rule: a.Name()}
	for _, pkg := range m.Pkgs {
		if !pathMatches(pkg.Path, a.Packages) {
			continue
		}
		funcs := map[string][]*ast.FuncDecl{}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					funcs[fd.Name.Name] = append(funcs[fd.Name.Name], fd)
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || calleeName(call.Fun) != serveInlineFunc || len(call.Args) < 3 {
					return true
				}
				handler := calleeName(call.Args[1])
				for _, arg := range call.Args[3:] {
					op := calleeName(arg)
					if !strings.HasPrefix(op, "Type") {
						r.reportf(arg.Pos(), "inline op %s is not a wire op constant: the inline set must be readable at the call site", exprString(arg))
						continue
					}
					w := &inlineWalk{r: r, funcs: funcs, op: op, site: r.line(call.Pos()), seen: map[*ast.FuncDecl]bool{}}
					for _, fd := range funcs[handler] {
						w.walkFunc(fd, handler)
					}
				}
				return true
			})
		}
	}
	return r.diags
}

// calleeName returns the final identifier of a function or constant
// reference: ServeInline for wire.ServeInline, handle for s.handle.
func calleeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.ParenExpr:
		return calleeName(v.X)
	}
	return ""
}

// inlineWalk is the search from one call site's handler for one inline op.
type inlineWalk struct {
	r     *reporter
	funcs map[string][]*ast.FuncDecl
	op    string // the wire op constant's name, e.g. TypeLookup
	site  int    // line of the ServeInline call
	seen  map[*ast.FuncDecl]bool
}

func (w *inlineWalk) walkFunc(fd *ast.FuncDecl, chain string) {
	if w.seen[fd] {
		return
	}
	w.seen[fd] = true
	w.walk(fd.Body, chain)
}

func (w *inlineWalk) found(pos token.Pos, what, chain string) {
	w.r.reportf(pos, "inline op %s (ServeInline at line %d) reaches blocking %s via %s: the connection's reader would wait on it",
		w.op, w.site, what, chain)
}

// walk visits one body on the reader's path.
func (w *inlineWalk) walk(n ast.Node, chain string) {
	ast.Inspect(n, func(nd ast.Node) bool {
		switch v := nd.(type) {
		case *ast.GoStmt:
			// The spawned body runs elsewhere; its arguments are evaluated here.
			for _, arg := range v.Call.Args {
				w.walk(arg, chain)
			}
			return false
		case *ast.SwitchStmt:
			if !opSwitch(v) {
				return true
			}
			if v.Init != nil {
				w.walk(v.Init, chain)
			}
			for _, cl := range v.Body.List {
				cc := cl.(*ast.CaseClause)
				for _, e := range cc.List {
					if calleeName(e) == w.op {
						for _, s := range cc.Body {
							w.walk(s, chain)
						}
					}
				}
			}
			return false
		case *ast.SendStmt:
			w.found(v.Arrow, "channel send", chain)
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				w.found(v.OpPos, "channel receive", chain)
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range v.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				w.found(v.Select, "select without default", chain)
			}
			// The comm ops are the select's wait, judged above; the clause
			// bodies run on the path.
			for _, cl := range v.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						w.walk(s, chain)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if what, blocking := blockingCall(v); blocking {
				w.found(v.Pos(), what, chain)
			}
			name := calleeName(v.Fun)
			for _, fd := range w.funcs[name] {
				w.walkFunc(fd, chain+" → "+name)
			}
		}
		return true
	})
}

// opSwitch reports whether sw dispatches on wire op constants: some case
// lists a Type* name.
func opSwitch(sw *ast.SwitchStmt) bool {
	for _, cl := range sw.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if strings.HasPrefix(calleeName(e), "Type") {
				return true
			}
		}
	}
	return false
}
