// Package analysis implements d2vet, the project-specific static-analysis
// suite that machine-checks the invariants D2-Tree's correctness rests on:
//
//   - lockheld: no blocking operation (RPC, dial, channel op, wait) while a
//     sync.Mutex/RWMutex is held, and every Lock has a release on every
//     return path;
//   - determinism: the simulator/partitioning/metrics/trace packages never
//     read the wall clock or the global math/rand state — clocks and RNGs
//     are injected and seeded;
//   - wirecheck: every wire message struct is fully json-tagged and every
//     wire op constant has a registered handler plus request/response
//     structs;
//   - statcheck: fields of mutex-guarded stats/counter structs are only
//     touched while the owning mutex is held (fields declared before the
//     mutex, and fields of self-synchronised types, are exempt);
//   - codeccheck: the hand payload codecs in payload_fast.go emit and
//     accept exactly the json-tagged fields of their message structs, in
//     declared order — codec drift becomes a build break;
//   - leasecheck: every entry-carrying wire response declares and stamps
//     the §8b lease fields, and mutating client calls reconcile the entry
//     cache;
//   - goroutinecheck: goroutines in the concurrent serving path have a
//     reachable termination path, and RPC connections are deadline-armed;
//   - inlinecheck: the ops a wire.ServeInline call site has the connection's
//     reader run itself reach no blocking call.
//
// The suite is purely syntactic (go/ast + go/parser + go/token): it needs no
// type information, no build, and no dependencies outside the standard
// library, so it runs on any checkout in milliseconds. The cost is a small
// set of conventions it leans on (mutex fields are named "mu"; functions
// whose name ends in "Locked" are called with the receiver's mu held), which
// this codebase follows uniformly.
//
// Intentional violations are suppressed with a comment on the flagged line
// or the line directly above it:
//
//	//d2vet:ignore <rule> <reason>
//
// The reason is mandatory; the driver counts suppressions and rejects
// malformed directives.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding, positioned in the analysed source.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Package is one parsed (non-test) Go package.
type Package struct {
	// Path is the package directory relative to the load root, e.g.
	// "internal/wire". The load root itself is ".".
	Path string
	// Name is the package name as declared in the sources.
	Name string
	// Files are the parsed non-test files, in filename order.
	Files []*ast.File
}

// Module is the set of packages under one load root, sharing a FileSet.
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// Pkg returns the package with the given root-relative path, or nil.
func (m *Module) Pkg(path string) *Package {
	for _, p := range m.Pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// Analyzer is one d2vet rule.
type Analyzer interface {
	// Name is the rule name used in output and ignore directives.
	Name() string
	// Doc is a one-line description of the invariant the rule encodes.
	Doc() string
	// Run analyses the module and returns its findings.
	Run(m *Module) []Diagnostic
}

// reporter accumulates diagnostics for one rule.
type reporter struct {
	fset  *token.FileSet
	rule  string
	diags []Diagnostic
}

func (r *reporter) reportf(pos token.Pos, format string, args ...interface{}) {
	r.diags = append(r.diags, Diagnostic{
		Pos:     r.fset.Position(pos),
		Rule:    r.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// line returns the line number of pos, for cross-referencing in messages.
func (r *reporter) line(pos token.Pos) int { return r.fset.Position(pos).Line }

// SortDiagnostics orders findings by file, line, column, then rule.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// DeterministicPackages are the packages whose behaviour must be a pure
// function of their inputs and seeds: they implement the paper's algorithms
// (Eq. 10 mirror division, DKW-governed sampling, decay-based
// Dynamic-Adjustment) and the simulator/trace machinery experiments replay.
var DeterministicPackages = []string{
	"internal/sim",
	"internal/partition",
	"internal/metrics",
	"internal/core",
	"internal/trace",
}

// ConcurrentPackages are the packages of the concurrent serving path whose
// goroutine lifecycles and state blocks the suite checks.
var ConcurrentPackages = []string{
	"internal/wire",
	"internal/server",
	"internal/monitor",
	"internal/client",
	"internal/obs",
	"internal/wal",
}

// Default returns the analyzer suite configured for this repository.
func Default() []Analyzer {
	return []Analyzer{
		&LockHeld{},
		&Determinism{Packages: DeterministicPackages},
		&WireCheck{WirePackage: "internal/wire", MessagesFile: "messages.go", EnvelopeStruct: "Envelope"},
		&StatCheck{Packages: []string{"internal/stats", "internal/core", "internal/obs", "internal/cache", "internal/server", "internal/monitor", "internal/wal"}},
		&CodecCheck{WirePackage: "internal/wire", CodecFile: "payload_fast.go", MessagesFile: "messages.go"},
		&LeaseCheck{WirePackage: "internal/wire", ServerPackage: "internal/server", ClientPackage: "internal/client"},
		&GoroutineCheck{Packages: ConcurrentPackages},
		&InlineCheck{Packages: ConcurrentPackages},
	}
}

// exprString renders a simple ident/selector chain ("s.mu", "other.mu") for
// use as a lock key. Expressions it cannot render return "".
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if x := exprString(v.X); x != "" {
			return x + "." + v.Sel.Name
		}
	case *ast.ParenExpr:
		return exprString(v.X)
	}
	return ""
}
