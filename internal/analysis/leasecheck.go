package analysis

import (
	"go/ast"
	"strings"
)

// LeaseCheck enforces the client-cache coherence contract (DESIGN.md §8b)
// statically, in three clauses:
//
//   - wire: every response or per-sub-op result struct (suffix "Response"
//     or "Result") that carries an entry body (a *Entry or []Entry field)
//     must also declare the lease-grant fields LeaseMS and IndexVer — an
//     entry shipped without a lease can never be cached coherently, so the
//     protocol gap is flagged at the struct; control-plane payloads the
//     client never caches carry a //d2vet:ignore with their reason;
//   - server: every composite literal of a lease-carrying wire response
//     type that sets an entry body (Entry:, Entries: or Match:) must stamp
//     LeaseMS and IndexVer in the same literal (the leaseLocked() values);
//     redirect-only and error returns are exempt — they grant nothing;
//   - client: every function that issues a namespace-mutating call
//     (TypeCreate, TypeSetAttr, TypeRename, TypeCreateWithAttrs, TypeBatch)
//     must reconcile the entry cache on some path — an Invalidate,
//     InvalidatePrefix or PutLeased call — or the client serves its own
//     stale copy after its own write.
//
// The rule is syntactic like the rest of the suite: it keys on the wire
// package's struct shapes, the wire.Type* constants, and the cache method
// names, all of which are conventions this codebase holds uniformly.
type LeaseCheck struct {
	// WirePackage is the root-relative path of the wire package.
	WirePackage string
	// ServerPackage is the root-relative path of the MDS server package.
	ServerPackage string
	// ClientPackage is the root-relative path of the client package.
	ClientPackage string
}

// Name implements Analyzer.
func (*LeaseCheck) Name() string { return "leasecheck" }

// Doc implements Analyzer.
func (*LeaseCheck) Doc() string {
	return "entry-carrying responses declare and stamp leases; mutating clients re-cache"
}

// mutatingOps are the wire type constants whose handlers change the
// namespace, after which a client-side cached entry may be stale.
var mutatingOps = map[string]bool{
	"TypeCreate":          true,
	"TypeSetAttr":         true,
	"TypeRename":          true,
	"TypeCreateWithAttrs": true,
	"TypeBatch":           true, // may carry create/setattr sub-ops
}

// cacheCalls are the client entry-cache reconciliation methods; cachePut is
// the client's own copy-then-PutLeased helper.
var cacheCalls = map[string]bool{
	"Invalidate":       true,
	"InvalidatePrefix": true,
	"PutLeased":        true,
	"cachePut":         true,
}

// Run implements Analyzer.
func (a *LeaseCheck) Run(m *Module) []Diagnostic {
	r := &reporter{fset: m.Fset, rule: a.Name()}
	wirePkg := m.Pkg(a.WirePackage)
	if wirePkg == nil {
		return r.diags
	}
	leased := a.checkWireStructs(r, wirePkg)
	if srv := m.Pkg(a.ServerPackage); srv != nil {
		a.checkServerLiterals(r, srv, wirePkg.Name, leased)
	}
	if cl := m.Pkg(a.ClientPackage); cl != nil {
		a.checkClientMutations(r, cl)
	}
	return r.diags
}

// checkWireStructs flags entry-carrying response structs without lease
// fields, and returns the set of response type names that do declare them.
func (a *LeaseCheck) checkWireStructs(r *reporter, pkg *Package) map[string]bool {
	leased := map[string]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || (!strings.HasSuffix(ts.Name.Name, "Response") && !strings.HasSuffix(ts.Name.Name, "Result")) {
				return true
			}
			hasEntryBody := false
			hasLease := false
			hasIndexVer := false
			for _, field := range st.Fields.List {
				switch ft := field.Type.(type) {
				case *ast.StarExpr:
					if id, ok := ft.X.(*ast.Ident); ok && id.Name == "Entry" {
						hasEntryBody = true
					}
				case *ast.ArrayType:
					if id, ok := ft.Elt.(*ast.Ident); ok && id.Name == "Entry" {
						hasEntryBody = true
					}
				}
				for _, fn := range field.Names {
					switch fn.Name {
					case "LeaseMS":
						hasLease = true
					case "IndexVer":
						hasIndexVer = true
					}
				}
			}
			if hasEntryBody && hasLease && hasIndexVer {
				leased[ts.Name.Name] = true
			}
			if hasEntryBody && (!hasLease || !hasIndexVer) {
				r.reportf(ts.Pos(), "%s carries an entry body but declares no LeaseMS/IndexVer lease fields (§8b: every entry-carrying response grants a lease)",
					ts.Name.Name)
			}
			return true
		})
	}
	// A lease-carrying response is one under every name it goes by.
	for alias, target := range typeAliases(pkg) {
		if leased[target] {
			leased[alias] = true
		}
	}
	return leased
}

// checkServerLiterals flags lease-carrying response literals that set an
// entry body without stamping the lease fields.
func (a *LeaseCheck) checkServerLiterals(r *reporter, pkg *Package, wireName string, leased map[string]bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := cl.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != wireName {
				return true
			}
			typeName := sel.Sel.Name
			if !leased[typeName] {
				return true
			}
			var bodyKey string
			hasLease := false
			hasIndexVer := false
			for _, elt := range cl.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				switch key.Name {
				case "Entry", "Entries", "Match":
					bodyKey = key.Name
				case "LeaseMS":
					hasLease = true
				case "IndexVer":
					hasIndexVer = true
				}
			}
			if bodyKey != "" && (!hasLease || !hasIndexVer) {
				r.reportf(cl.Pos(), "%s.%s literal sets %s without stamping LeaseMS/IndexVer (§8b: grant the lease via leaseLocked)",
					wireName, typeName, bodyKey)
			}
			return true
		})
	}
}

// checkClientMutations flags functions that issue a mutating wire call but
// never reconcile the entry cache.
func (a *LeaseCheck) checkClientMutations(r *reporter, pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var mutating []*ast.CallExpr
			var ops []string
			reconciles := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if cacheCalls[sel.Sel.Name] {
					reconciles = true
					return true
				}
				if (sel.Sel.Name == "Call" || sel.Sel.Name == "CallTraced") && len(call.Args) > 0 {
					if op := wireTypeName(call.Args[0]); mutatingOps[op] {
						mutating = append(mutating, call)
						ops = append(ops, op)
					}
				}
				return true
			})
			if !reconciles {
				for i, call := range mutating {
					r.reportf(call.Pos(), "%s issues a mutating %s call but never invalidates or re-caches the entry cache (§8b: reconcile with Invalidate/InvalidatePrefix/PutLeased)",
						fd.Name.Name, ops[i])
				}
			}
		}
	}
}

// wireTypeName extracts the Type* constant name from a call's op argument
// (wire.TypeCreate or a package-local TypeCreate).
func wireTypeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.Ident:
		return v.Name
	}
	return ""
}
