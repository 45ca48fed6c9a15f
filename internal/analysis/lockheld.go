package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// LockHeld enforces the repo's lock discipline, born out of PR 1's failure
// model: a mutex is a short critical section around in-memory state, never
// held across anything that can block on another goroutine or the network.
// It flags:
//
//   - blocking operations — wire RPCs (Call/CallOnce), dials, listener
//     accepts, frame I/O, fsyncs and WAL appends, sleeps, WaitGroup waits,
//     channel sends/receives, selects without default — reached while any
//     mutex is held;
//   - Lock() without a paired defer Unlock() or an explicit Unlock on every
//     return path, and locks leaking across loop iterations;
//   - double Lock of the same mutex on one path, RLock released with
//     Unlock (and vice versa), and Unlock of a mutex not held in the
//     function.
//
// Functions whose name ends in "Locked" are assumed to be called with the
// receiver's mu held (the codebase's convention), so blocking operations
// inside them are flagged too. Function literals (goroutines, defers,
// callbacks) are analysed as fresh scopes: they run with their own lock
// state, not the spawner's.
type LockHeld struct{}

// Name implements Analyzer.
func (*LockHeld) Name() string { return "lockheld" }

// Doc implements Analyzer.
func (*LockHeld) Doc() string {
	return "no blocking operation while holding a mutex; every Lock released on every path"
}

// blockingMethods are method/function names whose call blocks on I/O or
// another goroutine. Matched syntactically on the selector (x.Call, wire.Dial,
// time.Sleep, wg.Wait, ...), which is unambiguous in this codebase.
var blockingMethods = map[string]string{
	"Call":        "RPC call",
	"CallOnce":    "RPC call",
	"CallTraced":  "RPC call",
	"Dial":        "network dial",
	"DialCall":    "network dial",
	"DialTimeout": "network dial",
	"DialContext": "network dial",
	"Listen":      "network listen",
	"Accept":      "listener accept",
	"Sleep":       "sleep",
	"Wait":        "wait",
	"WithLock":    "lock-service acquire (spins with backoff)",
	"ReadFrame":   "frame read (network I/O)",
	"WriteFrame":  "frame write (network I/O)",
	"Sync":        "fsync",
	"Append":      "WAL append (fsync)",
	"AppendBatch": "WAL append (fsync)",
}

// blockingIdents are package-local function names that block; they appear as
// bare identifiers inside their own package (wire's frame I/O).
var blockingIdents = map[string]string{
	"ReadFrame":  "frame read (network I/O)",
	"WriteFrame": "frame write (network I/O)",
}

// Run implements Analyzer.
func (a *LockHeld) Run(m *Module) []Diagnostic {
	r := &reporter{fset: m.Fset, rule: a.Name()}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				a.checkFunc(r, fd)
			}
		}
	}
	return r.diags
}

func (a *LockHeld) checkFunc(r *reporter, fd *ast.FuncDecl) {
	var seeds []*heldLock
	// xxxLocked convention: the caller holds the receiver's mu.
	if strings.HasSuffix(fd.Name.Name, "Locked") && fd.Recv != nil &&
		len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recv := fd.Recv.List[0].Names[0].Name
		seeds = append(seeds, &heldLock{
			key: recv + ".mu", pos: fd.Name.Pos(), seeded: true,
		})
	}
	c := &lockheldClient{r: r}
	runFlow(fd.Body, seeds, c)
}

type lockheldClient struct {
	r *reporter
}

func (c *lockheldClient) exprNode(n ast.Node, held map[string]*heldLock) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	// Lock-protocol checks: the engine applies the state change after this
	// callback, so `held` reflects the state just before the call.
	if key, name, isLock := lockCallInfo(call); isLock {
		h := held[key]
		switch {
		case name == "Lock" || name == "RLock":
			if h != nil {
				c.r.reportf(call.Pos(), "%s.%s() but %s is already held (locked at line %d): possible self-deadlock",
					key, name, key, c.r.line(h.pos))
			}
		case isUnlockName(name):
			if h == nil {
				c.r.reportf(call.Pos(), "%s.%s() but %s is not held on this path", key, name, key)
			} else if h.seeded {
				// Releasing a caller-held lock inside a *Locked helper breaks
				// the convention the suffix promises.
				c.r.reportf(call.Pos(), "%s.%s() inside a *Locked function releases the caller's lock", key, name)
			} else if h.rlock != (name == "RUnlock") {
				c.r.reportf(call.Pos(), "%s acquired with %s but released with %s",
					key, lockName(h.rlock), name)
			}
		}
		return
	}
	what, blocking := blockingCall(call)
	if !blocking {
		return
	}
	for _, h := range held {
		c.r.reportf(call.Pos(), "blocking %s while holding %s (%s at line %d)",
			what, h.key, lockDesc(h), c.r.line(h.pos))
	}
}

func (c *lockheldClient) channelOp(pos token.Pos, what string, held map[string]*heldLock) {
	for _, h := range held {
		c.r.reportf(pos, "blocking %s while holding %s (%s at line %d)",
			what, h.key, lockDesc(h), c.r.line(h.pos))
	}
}

func (c *lockheldClient) returnPath(pos token.Pos, leaked []*heldLock) {
	for _, h := range leaked {
		c.r.reportf(pos, "%s locked at line %d is not released on this return path (no defer %s.Unlock())",
			h.key, c.r.line(h.pos), h.key)
	}
}

func (c *lockheldClient) iterEnd(pos token.Pos, leaked []*heldLock) {
	for _, h := range leaked {
		c.r.reportf(pos, "%s locked at line %d is still held at the end of the loop iteration",
			h.key, c.r.line(h.pos))
	}
}

func (c *lockheldClient) funcLit(fn *ast.FuncLit) {
	// Goroutines, deferred closures and callbacks run with their own lock
	// state; analyse them as fresh scopes.
	runFlow(fn.Body, nil, c)
}

// blockingCall reports whether call is a known blocking operation.
func blockingCall(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if what, ok := blockingMethods[fun.Sel.Name]; ok {
			return what + " via ." + fun.Sel.Name, true
		}
	case *ast.Ident:
		if what, ok := blockingIdents[fun.Name]; ok {
			return what + " via " + fun.Name, true
		}
	}
	return "", false
}

func lockName(rlock bool) string {
	if rlock {
		return "RLock"
	}
	return "Lock"
}

func lockDesc(h *heldLock) string {
	if h.seeded {
		return "held by the *Locked convention, declared"
	}
	return lockName(h.rlock) + "ed"
}
