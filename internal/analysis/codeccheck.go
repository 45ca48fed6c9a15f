package analysis

import (
	"go/ast"
	"go/token"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// CodecCheck proves the hand-rolled payload codecs in the wire package's
// fast-path file stay field-for-field in sync with the json-tagged message
// structs. The generic encoding/json path derives its schema from struct
// tags by reflection; the hand codecs re-state that schema as string
// fragments and switch cases, so a field added to a message but missed in
// its codec silently drops data on the hot path — the exact class of drift
// this rule turns into a build break.
//
// For every payload type covered by the fastMarshalPayload /
// fastUnmarshalPayload type switches, the rule computes the set of JSON
// keys the codec can emit (string fragments like `"leaseMs":` in any
// function transitively reachable from the type's case body) and the set it
// can accept (case labels and comparisons against the "key" variable — as
// a string, or as the in-place []byte matched through string(key) — in
// reachable decode helpers), then checks both against the struct's json
// tags — including the tags of nested message structs such as Entry:
//
//   - a struct field whose key the codec never emits (or never accepts) is
//     a missing-field diagnostic;
//   - a codec key that is not a field of the struct (or its nested message
//     structs) is an extra-key diagnostic;
//   - the first-occurrence order of the struct's own keys on the encode and
//     decode sides must both match the struct's declared field order;
//   - a type covered by only one of the two switches is an asymmetry
//     diagnostic.
//
// Message structs with no fast codec are exempt (they ride encoding/json)
// but are enumerated by the Uncovered method so tests and docs can keep the
// roster visible.
type CodecCheck struct {
	// WirePackage is the root-relative path of the wire package.
	WirePackage string
	// CodecFile is the basename of the file holding fastMarshalPayload and
	// fastUnmarshalPayload (the hand codecs).
	CodecFile string
	// MessagesFile is the basename of the file declaring the json-tagged
	// message structs.
	MessagesFile string
}

// Name implements Analyzer.
func (*CodecCheck) Name() string { return "codeccheck" }

// Doc implements Analyzer.
func (*CodecCheck) Doc() string {
	return "hand payload codecs emit/accept exactly the json-tagged struct fields, in order"
}

const (
	fastMarshalFunc   = "fastMarshalPayload"
	fastUnmarshalFunc = "fastUnmarshalPayload"
)

// Run implements Analyzer.
func (a *CodecCheck) Run(m *Module) []Diagnostic {
	r := &reporter{fset: m.Fset, rule: a.Name()}
	pkg := m.Pkg(a.WirePackage)
	if pkg == nil {
		return nil
	}
	structs := collectStructs(pkg)
	w := newCodecWalker(pkg)

	enc := a.coveredTypes(m, w, fastMarshalFunc)
	dec := a.coveredTypes(m, w, fastUnmarshalFunc)

	for name, cov := range enc {
		if _, ok := dec[name]; !ok {
			r.reportf(cov.pos, "%s has a fast encoder but no fast decoder case in %s",
				name, fastUnmarshalFunc)
		}
	}
	for name, cov := range dec {
		if _, ok := enc[name]; !ok {
			r.reportf(cov.pos, "%s has a fast decoder but no fast encoder case in %s",
				name, fastMarshalFunc)
		}
	}

	names := make([]string, 0, len(enc))
	for name := range enc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ns := structs[name]
		if ns == nil {
			continue
		}
		own := jsonKeyOrder(ns.st)
		expected := map[string]bool{}
		// The type's own keys plus, transitively, those of every message
		// struct reachable through its fields — including through slice and
		// map value types (BatchResponse → []BatchResult → *Entry).
		addNestedKeys(structs, ns, expected, map[string]bool{})
		encOK := a.checkSide(r, name, "encode", enc[name], own, expected)
		var decOK bool
		if cov, ok := dec[name]; ok {
			decOK = a.checkSide(r, name, "decode", cov, own, expected)
		}
		// Order is only meaningful once both closures hold — a missing key
		// would cascade into a confusing order mismatch.
		if encOK {
			a.checkOrder(r, name, "encodes", enc[name], own)
		}
		if decOK {
			a.checkOrder(r, name, "decodes", dec[name], own)
		}
	}
	return r.diags
}

// checkSide verifies key closure for one type on one side; it reports
// missing struct fields and extra codec keys and returns whether the side
// is closed.
func (a *CodecCheck) checkSide(r *reporter, typeName, side string, cov *codecCoverage,
	own []string, expected map[string]bool) bool {
	keys := cov.encKeys
	verb := "emits"
	if side == "decode" {
		keys = cov.decKeys
		verb = "accepts"
	}
	got := map[string]bool{}
	for _, k := range keys {
		got[k] = true
	}
	ok := true
	for k := range expected {
		if !got[k] {
			ok = false
			r.reportf(cov.pos, "%s fast %s path never %s json key %q (field drift: codec out of sync with struct)",
				typeName, side, verb, k)
		}
	}
	for _, k := range keys {
		if !expected[k] {
			ok = false
			r.reportf(cov.pos, "%s fast %s path %s json key %q which is not a field of %s or its nested message structs",
				typeName, side, verb, k, typeName)
		}
	}
	return ok
}

// checkOrder verifies the first-occurrence order of the struct's own keys
// matches the declared field order.
func (a *CodecCheck) checkOrder(r *reporter, typeName, verb string, cov *codecCoverage, own []string) {
	keys := cov.encKeys
	if verb == "decodes" {
		keys = cov.decKeys
	}
	ownSet := map[string]bool{}
	for _, k := range own {
		ownSet[k] = true
	}
	var seq []string
	seen := map[string]bool{}
	for _, k := range keys {
		if ownSet[k] && !seen[k] {
			seen[k] = true
			seq = append(seq, k)
		}
	}
	if !reflect.DeepEqual(seq, own) {
		r.reportf(cov.pos, "%s fast codec %s keys in order [%s] but the struct declares [%s]",
			typeName, verb, strings.Join(seq, " "), strings.Join(own, " "))
	}
}

// Uncovered enumerates the exported message structs of MessagesFile that
// neither fast-path switch covers: they ride encoding/json. Exposed for the
// roster test and docs; not a diagnostic.
func (a *CodecCheck) Uncovered(m *Module) []string {
	pkg := m.Pkg(a.WirePackage)
	if pkg == nil {
		return nil
	}
	w := newCodecWalker(pkg)
	covered := map[string]bool{}
	for name := range a.coveredTypes(m, w, fastMarshalFunc) {
		covered[name] = true
	}
	for name := range a.coveredTypes(m, w, fastUnmarshalFunc) {
		covered[name] = true
	}
	var out []string
	for _, f := range pkg.Files {
		if baseName(m.FileName(f)) != a.MessagesFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
				return true
			}
			if ast.IsExported(ts.Name.Name) && !covered[ts.Name.Name] {
				out = append(out, ts.Name.Name)
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

// codecCoverage is the key traffic reachable from one type's case body.
type codecCoverage struct {
	pos     token.Pos
	encKeys []string // emitted keys, in first-emission order
	decKeys []string // accepted keys, in first-acceptance order
}

// coveredTypes maps payload type name → coverage for one switch function
// (fastMarshalPayload or fastUnmarshalPayload) in CodecFile.
func (a *CodecCheck) coveredTypes(m *Module, w *codecWalker, funcName string) map[string]*codecCoverage {
	out := map[string]*codecCoverage{}
	fd := w.topLevel[funcName]
	if fd == nil || fd.Body == nil {
		return out
	}
	if baseName(m.FileName(w.fileOf[fd])) != a.CodecFile {
		return out
	}
	// fastMarshalPayload is a thin entry over the append-style switch the
	// in-place encoders share: the roster is the first type switch reachable
	// from the named function.
	sw := w.typeSwitch(fd, map[*ast.FuncDecl]bool{})
	if sw != nil {
		for _, cl := range sw.Body.List {
			cc, ok := cl.(*ast.CaseClause)
			if !ok || len(cc.List) == 0 {
				continue
			}
			for _, te := range cc.List {
				name := baseTypeName(te)
				if name == "" {
					continue
				}
				cov := &codecCoverage{pos: te.Pos()}
				w.collect(cc.Body, cov)
				out[name] = cov
			}
		}
	}
	return out
}

// typeSwitch returns the first type switch in fd's body, or failing that in
// a package-local function it calls.
func (w *codecWalker) typeSwitch(fd *ast.FuncDecl, visited map[*ast.FuncDecl]bool) *ast.TypeSwitchStmt {
	if fd == nil || fd.Body == nil || visited[fd] {
		return nil
	}
	visited[fd] = true
	var found *ast.TypeSwitchStmt
	var callees []*ast.FuncDecl
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.TypeSwitchStmt:
			if found == nil {
				found = v
			}
			return false
		case *ast.CallExpr:
			callees = append(callees, w.resolve(v.Fun))
		}
		return found == nil
	})
	for _, callee := range callees {
		if found != nil {
			break
		}
		found = w.typeSwitch(callee, visited)
	}
	return found
}

// codecWalker resolves calls to package-local functions and methods so key
// extraction can follow the codec helper chain (appendLeasedEntry →
// appendEntry, decodeLeasedEntry → cursor.entry, …).
type codecWalker struct {
	topLevel map[string]*ast.FuncDecl
	methods  map[string]*ast.FuncDecl
	fileOf   map[*ast.FuncDecl]*ast.File
}

func newCodecWalker(pkg *Package) *codecWalker {
	w := &codecWalker{
		topLevel: map[string]*ast.FuncDecl{},
		methods:  map[string]*ast.FuncDecl{},
		fileOf:   map[*ast.FuncDecl]*ast.File{},
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			w.fileOf[fd] = f
			if fd.Recv == nil {
				w.topLevel[fd.Name.Name] = fd
			} else {
				w.methods[fd.Name.Name] = fd
			}
		}
	}
	return w
}

// encKeyPattern matches a JSON object key fragment inside a codec string
// literal: `{"path":`, `,"kind":`, `"match":true`.
var encKeyPattern = regexp.MustCompile(`"([A-Za-z_][A-Za-z0-9_]*)":`)

// collect walks stmts in source order, descending into package-local calls
// at their call sites, recording emitted keys (string fragments) and
// accepted keys (case labels / comparisons on the "key" variable).
func (w *codecWalker) collect(body []ast.Stmt, cov *codecCoverage) {
	onStack := map[*ast.FuncDecl]bool{}
	keyLits := map[*ast.BasicLit]bool{}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(nd ast.Node) bool {
			switch v := nd.(type) {
			case *ast.SwitchStmt:
				if isKeyExpr(v.Tag) {
					for _, cl := range v.Body.List {
						cc, ok := cl.(*ast.CaseClause)
						if !ok {
							continue
						}
						for _, e := range cc.List {
							if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
								keyLits[lit] = true
							}
						}
					}
				}
			case *ast.BinaryExpr:
				if v.Op == token.EQL || v.Op == token.NEQ {
					markKeyCompare(v.X, v.Y, keyLits)
					markKeyCompare(v.Y, v.X, keyLits)
				}
			case *ast.BasicLit:
				if v.Kind != token.STRING {
					return true
				}
				if keyLits[v] {
					if s, err := strconv.Unquote(v.Value); err == nil {
						cov.decKeys = append(cov.decKeys, s)
					}
					return true
				}
				text, err := strconv.Unquote(v.Value)
				if err != nil {
					text = v.Value
				}
				for _, match := range encKeyPattern.FindAllStringSubmatch(text, -1) {
					cov.encKeys = append(cov.encKeys, match[1])
				}
			case *ast.CallExpr:
				if callee := w.resolve(v.Fun); callee != nil && callee.Body != nil && !onStack[callee] {
					onStack[callee] = true
					walk(callee.Body)
					delete(onStack, callee)
				}
			}
			return true
		})
	}
	for _, s := range body {
		walk(s)
	}
}

// markKeyCompare marks lit as a decode key when the other operand is the
// "key" variable (the object-walk callback parameter).
func markKeyCompare(keySide, litSide ast.Expr, keyLits map[*ast.BasicLit]bool) {
	if !isKeyExpr(keySide) {
		return
	}
	if lit, ok := litSide.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		keyLits[lit] = true
	}
}

// isKeyExpr reports whether e reads the object-walk callback's "key"
// parameter: the identifier itself, or string(key) over the in-place []byte
// form (a conversion the compiler does not allocate for in a switch tag or a
// comparison).
func isKeyExpr(e ast.Expr) bool {
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "string" {
			return false
		}
		e = call.Args[0]
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "key"
}

// resolve maps a call expression to a package-local function or method
// declaration, or nil for anything it cannot see (stdlib, parameters).
func (w *codecWalker) resolve(fun ast.Expr) *ast.FuncDecl {
	switch v := fun.(type) {
	case *ast.Ident:
		return w.topLevel[v.Name]
	case *ast.SelectorExpr:
		if _, ok := v.X.(*ast.Ident); ok {
			return w.methods[v.Sel.Name]
		}
	case *ast.ParenExpr:
		return w.resolve(v.X)
	}
	return nil
}

// addNestedKeys accumulates ns's json keys into expected, then recurses into
// every package-local struct reachable through its fields. visited breaks
// cycles (a struct contributes its keys once).
func addNestedKeys(structs map[string]*namedStruct, ns *namedStruct, expected, visited map[string]bool) {
	if visited[ns.name] {
		return
	}
	visited[ns.name] = true
	for _, k := range jsonKeyOrder(ns.st) {
		expected[k] = true
	}
	for _, field := range ns.st.Fields.List {
		if nested := structs[elemTypeName(field.Type)]; nested != nil {
			addNestedKeys(structs, nested, expected, visited)
		}
	}
}

// elemTypeName unwraps a field type to its named element type, descending
// through slices, arrays, and map values (wire map keys are plain strings and
// never name a message struct). Kept local to codeccheck: baseTypeName's
// other callers must not see through containers.
func elemTypeName(t ast.Expr) string {
	switch v := t.(type) {
	case *ast.ArrayType:
		return elemTypeName(v.Elt)
	case *ast.MapType:
		return elemTypeName(v.Value)
	default:
		return baseTypeName(t)
	}
}

// jsonKeyOrder returns the struct's json tag names in declared field order
// (untagged and "-" fields are skipped; wirecheck enforces tag closure).
func jsonKeyOrder(st *ast.StructType) []string {
	var out []string
	for _, field := range st.Fields.List {
		if field.Tag == nil {
			continue
		}
		tagText, err := strconv.Unquote(field.Tag.Value)
		if err != nil {
			continue
		}
		name := reflect.StructTag(tagText).Get("json")
		if name == "" || name == "-" {
			continue
		}
		if i := strings.IndexByte(name, ','); i >= 0 {
			name = name[:i]
		}
		if name == "" || name == "-" {
			continue
		}
		for range field.Names {
			out = append(out, name)
		}
		if len(field.Names) == 0 {
			out = append(out, name)
		}
	}
	return out
}

// baseName returns the last path element of a filename.
func baseName(path string) string {
	if i := strings.LastIndexAny(path, `/\`); i >= 0 {
		return path[i+1:]
	}
	return path
}
