package analysis

import (
	"go/ast"
	"path/filepath"
	"reflect"
	"strings"
)

// WireCheck enforces the wire-protocol invariants between clients, MDSs and
// the Monitor:
//
//  1. every exported struct declared in the messages file — and every wire
//     struct transitively reachable from one through field types — has a
//     json tag on each exported field, so the framed-JSON schema is explicit
//     and stable (an untagged field silently changes the wire format when
//     renamed);
//  2. every wire op constant (string consts named Type*) is dispatched
//     somewhere: a `case wire.TypeX:` exists in a handler switch;
//  3. every wire op constant has a request/response schema: a struct named
//     <X>Request or <X>Response exists in the wire package.
//
// Generic envelope types (TypeOK, TypeError) and piggybacked commands
// (TypeTransfer) are intentional exceptions, suppressed in source with
// //d2vet:ignore wirecheck comments that document why.
type WireCheck struct {
	// WirePackage is the root-relative path of the wire package.
	WirePackage string
	// MessagesFile is the basename of the message-schema file.
	MessagesFile string
	// EnvelopeStruct optionally names the frame envelope struct, which lives
	// outside the messages file but is still wire format: it joins the
	// tag-checked set (and everything reachable from it) when set.
	EnvelopeStruct string
}

// Name implements Analyzer.
func (*WireCheck) Name() string { return "wirecheck" }

// Doc implements Analyzer.
func (*WireCheck) Doc() string {
	return "wire messages fully json-tagged; every op constant handled and schema'd"
}

// Run implements Analyzer.
func (a *WireCheck) Run(m *Module) []Diagnostic {
	r := &reporter{fset: m.Fset, rule: a.Name()}
	wirePkg := m.Pkg(a.WirePackage)
	if wirePkg == nil {
		return nil
	}

	structs := collectStructs(wirePkg)
	a.checkJSONTags(r, m, wirePkg, structs)
	a.checkOpConstants(r, m, wirePkg, structs)
	return r.diags
}

// namedStruct is one struct type declared in the wire package.
type namedStruct struct {
	name string
	st   *ast.StructType
	file string // basename of the declaring file
}

// collectStructs maps every struct type declared in pkg by name, and every
// alias of one (`type LookupResponse = EntryResponse`) to the struct it
// stands for: the rules key on names, and a message may be named through
// either.
func collectStructs(pkg *Package) map[string]*namedStruct {
	out := make(map[string]*namedStruct)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			out[ts.Name.Name] = &namedStruct{name: ts.Name.Name, st: st}
			return true
		})
	}
	for alias, target := range typeAliases(pkg) {
		if ns := out[target]; ns != nil {
			out[alias] = ns
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

// checkJSONTags verifies tag completeness for exported structs in the
// messages file plus wire structs reachable from them via field types.
func (a *WireCheck) checkJSONTags(r *reporter, m *Module, pkg *Package, structs map[string]*namedStruct) {
	// Seed: exported structs declared in the messages file.
	var work []string
	seen := make(map[string]bool)
	for name, ns := range structs {
		if !ast.IsExported(name) || name != ns.name {
			continue // unexported, or an alias: the struct is checked under its own name
		}
		file := filepath.Base(m.Fset.Position(ns.st.Pos()).Filename)
		if file == a.MessagesFile {
			work = append(work, name)
			seen[name] = true
		}
	}
	if a.EnvelopeStruct != "" && !seen[a.EnvelopeStruct] {
		if _, ok := structs[a.EnvelopeStruct]; ok {
			work = append(work, a.EnvelopeStruct)
			seen[a.EnvelopeStruct] = true
		}
	}
	for len(work) > 0 {
		name := work[0]
		work = work[1:]
		ns := structs[name]
		for _, field := range ns.st.Fields.List {
			// Reachability: field types that name another wire struct join
			// the checked set (e.g. StatsResponse → MetricsSnapshot).
			for _, ref := range typeRefs(field.Type) {
				if _, ok := structs[ref]; ok && !seen[ref] {
					seen[ref] = true
					work = append(work, ref)
				}
			}
			if len(field.Names) == 0 {
				continue // embedded field: marshalled inline via its own tags
			}
			for _, fn := range field.Names {
				if !ast.IsExported(fn.Name) {
					continue
				}
				if !hasJSONTag(field) {
					r.reportf(fn.Pos(),
						"exported wire field %s.%s has no json tag; the frame schema must be explicit",
						name, fn.Name)
				}
			}
		}
	}
}

// hasJSONTag reports whether the field carries a non-empty json tag key.
func hasJSONTag(field *ast.Field) bool {
	if field.Tag == nil {
		return false
	}
	raw := strings.Trim(field.Tag.Value, "`")
	tag, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		return false
	}
	name := strings.Split(tag, ",")[0]
	return name != "" // "-" counts: an explicit exclusion is a decision
}

// typeRefs returns the local type names referenced by a field type
// expression (T, *T, []T, map[K]V, [N]T).
func typeRefs(e ast.Expr) []string {
	var out []string
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && ast.IsExported(id.Name) {
			out = append(out, id.Name)
		}
		return true
	})
	return out
}

// checkOpConstants verifies each Type* string constant is handled and has a
// request/response schema.
func (a *WireCheck) checkOpConstants(r *reporter, m *Module, wirePkg *Package, structs map[string]*namedStruct) {
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
