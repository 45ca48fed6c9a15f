package analysis

import (
	"go/ast"
	"strings"
)

// WireCheck enforces the wire-protocol invariants between clients, MDSs and
// the Monitor:
//
//  1. every wire op constant (string consts named Type*) is dispatched
//     somewhere: a `case wire.TypeX:` exists in a handler switch;
//  2. every wire op constant has a request/response schema: a struct named
//     <X>Request or <X>Response exists in the wire package.
//
// Generic envelope types (TypeOK, TypeError) and piggybacked commands
// (TypeTransfer) are intentional exceptions, suppressed in source with
// //d2vet:ignore wirecheck comments that document why.
type WireCheck struct {
	// WirePackage is the root-relative path of the wire package.
	WirePackage string
}

// Name implements Analyzer.
func (*WireCheck) Name() string { return "wirecheck" }

// Doc implements Analyzer.
func (*WireCheck) Doc() string {
	return "every wire op constant handled and schema'd"
}

// Run implements Analyzer.
func (a *WireCheck) Run(m *Module) []Diagnostic {
	r := &reporter{fset: m.Fset, rule: a.Name()}
	wirePkg := m.Pkg(a.WirePackage)
	if wirePkg == nil {
		return nil
	}
	a.checkOpConstants(r, m, wirePkg, structNames(wirePkg))
	return r.diags
}

// structNames holds every struct type declared in pkg, and every alias of one
// (`type LookupResponse = EntryResponse`): a message may be named through
// either.
func structNames(pkg *Package) map[string]bool {
	out := make(map[string]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if _, ok := ts.Type.(*ast.StructType); ok {
					out[ts.Name.Name] = true
				}
			}
			return true
		})
	}
	for alias, target := range typeAliases(pkg) {
		if out[target] {
			out[alias] = true
		}
	}
	return out
}

// typeAliases maps each alias pkg declares for one of its own types
// (`type A = B`) to B.
func typeAliases(pkg *Package) map[string]string {
	out := make(map[string]string)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
				if target, ok := ts.Type.(*ast.Ident); ok {
					out[ts.Name.Name] = target.Name
				}
			}
			return true
		})
	}
	return out
}

// checkOpConstants verifies each Type* string constant is handled and has a
// request/response schema.
func (a *WireCheck) checkOpConstants(r *reporter, m *Module, wirePkg *Package, structs map[string]bool) {
	handled := collectHandledOps(m, wirePkg.Name)
	for _, f := range wirePkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Type") || len(name.Name) == len("Type") {
						continue
					}
					if !isStringConst(vs) {
						continue
					}
					base := strings.TrimPrefix(name.Name, "Type")
					if _, req := structs[base+"Request"]; !req {
						if _, resp := structs[base+"Response"]; !resp {
							r.reportf(name.Pos(),
								"wire op %s has neither a %sRequest nor a %sResponse struct",
								name.Name, base, base)
						}
					}
					if !handled[name.Name] {
						r.reportf(name.Pos(),
							"wire op %s is not dispatched by any handler (no `case %s.%s:` in a switch)",
							name.Name, wirePkg.Name, name.Name)
					}
				}
			}
		}
	}
}

func isStringConst(vs *ast.ValueSpec) bool {
	for _, v := range vs.Values {
		if bl, ok := v.(*ast.BasicLit); ok && bl.Kind.String() == "STRING" {
			return true
		}
	}
	return false
}

// collectHandledOps finds every wire op constant used as a case expression
// in any switch across the module: `case wire.TypeX:` outside the wire
// package, or `case TypeX:` inside it.
func collectHandledOps(m *Module, wirePkgName string) map[string]bool {
	out := make(map[string]bool)
	for _, pkg := range m.Pkgs {
		inWire := pkg.Name == wirePkgName
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range cc.List {
					switch v := e.(type) {
					case *ast.SelectorExpr:
						if id, ok := v.X.(*ast.Ident); ok && id.Name == wirePkgName &&
							strings.HasPrefix(v.Sel.Name, "Type") {
							out[v.Sel.Name] = true
						}
					case *ast.Ident:
						if inWire && strings.HasPrefix(v.Name, "Type") {
							out[v.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	return out
}
