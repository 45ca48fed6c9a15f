package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation tests prove the new rules fire on seeded defects in the REAL
// sources, not just on the golden fixtures: each test copies live files into
// a temp module root, verifies the analyzer is clean on the copy, applies a
// textual mutation reintroducing the defect class the rule exists to catch,
// and asserts the diagnostic appears.

// mutationRoot copies repo files (paths relative to the repo root) into a
// temp directory preserving their layout and returns the new root.
func mutationRoot(t *testing.T, files ...string) string {
	t.Helper()
	root := t.TempDir()
	for _, rel := range files {
		src := filepath.Join("..", "..", rel)
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// mutate rewrites one file under root, replacing the first occurrence of
// old with new, and fails the test if old is absent (the mutation anchor
// drifted with the source).
func mutate(t *testing.T, root, rel, old, new string) {
	t.Helper()
	path := filepath.Join(root, rel)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("mutation anchor %q not found in %s; update the test", old, rel)
	}
	out := strings.Replace(string(data), old, new, 1)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runOn loads root and runs one analyzer over it, honouring in-source
// //d2vet:ignore directives exactly as d2vet does — the live sources carry
// documented exemptions the control runs must not trip over.
func runOn(t *testing.T, root string, a Analyzer) []Diagnostic {
	t.Helper()
	m, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	diags := a.Run(m)
	dirs, malformed := CollectDirectives(m)
	kept, _ := Filter(append(diags, malformed...), dirs)
	return kept
}

// requireDiag asserts some diagnostic message contains want.
func requireDiag(t *testing.T, diags []Diagnostic, want string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, want) {
			return
		}
	}
	t.Fatalf("no diagnostic mentions %q; got %d diagnostics: %v", want, len(diags), diags)
}

func requireClean(t *testing.T, diags []Diagnostic) {
	t.Helper()
	if len(diags) != 0 {
		t.Fatalf("expected clean control run, got %v", diags)
	}
}

func newLeaseCheck() Analyzer {
	return &LeaseCheck{WirePackage: "internal/wire", ServerPackage: "internal/server", ClientPackage: "internal/client"}
}

// TestLeaseCheckMutation reintroduces both halves of the §8b gap leasecheck
// exists for: a response struct losing a lease field, and the result every
// op body ships an entry in (grantLocked) losing the grant's stamp.
func TestLeaseCheckMutation(t *testing.T) {
	t.Run("wire struct loses lease field", func(t *testing.T) {
		root := mutationRoot(t, "internal/wire/messages.go", "internal/server/handlers.go")
		requireClean(t, runOn(t, root, newLeaseCheck()))

		mutate(t, root, "internal/wire/messages.go",
			"IndexVer int64", "IndexVerX int64")
		requireDiag(t, runOn(t, root, newLeaseCheck()),
			"declares no LeaseMS/IndexVer lease fields")
	})
	t.Run("op body skips the stamp", func(t *testing.T) {
		root := mutationRoot(t, "internal/wire/messages.go", "internal/server/handlers.go")
		mutate(t, root, "internal/server/handlers.go",
			"wire.BatchResult{Entry: e, LeaseMS: leaseMS, ", "wire.BatchResult{Entry: e, ")
		requireDiag(t, runOn(t, root, newLeaseCheck()),
			"without stamping LeaseMS/IndexVer")
	})
}

// TestGoroutineCheckMutation removes heartbeatLoop's only exit and disarms
// a transfer connection's call deadline.
func TestGoroutineCheckMutation(t *testing.T) {
	check := func() Analyzer { return &GoroutineCheck{Packages: []string{"internal/server"}} }
	t.Run("loop loses its stop case", func(t *testing.T) {
		root := mutationRoot(t, "internal/server/server.go")
		requireClean(t, runOn(t, root, check()))

		mutate(t, root, "internal/server/server.go",
			"case <-s.stop:\n\t\t\treturn", "case <-s.stop:\n\t\t\ts.heartbeatOnce()")
		requireDiag(t, runOn(t, root, check()),
			"loops unconditionally with no return or break")
	})
	t.Run("transfer conn loses its deadline", func(t *testing.T) {
		root := mutationRoot(t, "internal/server/server.go")
		mutate(t, root, "internal/server/server.go",
			"s.cfg.DialTimeout, s.cfg.CallTimeout)", "s.cfg.DialTimeout, 0)")
		requireDiag(t, runOn(t, root, check()),
			"DialCall with a zero call timeout")
	})
}

// TestInlineCheckMutation moves an op that waits onto the MDS reader: a
// SetAttr parks on the tail it noted, or on the Monitor for a global-layer
// path.
func TestInlineCheckMutation(t *testing.T) {
	check := func() Analyzer {
		return &InlineCheck{Packages: []string{"internal/server", "internal/monitor"}}
	}
	root := mutationRoot(t, "internal/monitor/monitor.go",
		"internal/server/server.go", "internal/server/handlers.go",
		"internal/server/durability.go", "internal/server/compound.go", "internal/server/store.go")
	requireClean(t, runOn(t, root, check()))

	mutate(t, root, "internal/server/server.go",
		"wire.TypeLookup, wire.TypeRevalidate,", "wire.TypeLookup, wire.TypeSetAttr, wire.TypeRevalidate,")
	diags := runOn(t, root, check())
	requireDiag(t, diags, "inline op TypeSetAttr")
	requireDiag(t, diags, "wait via .Wait via handle → dispatch → handleSetAttr → mutate")
	requireDiag(t, diags, "RPC call via .CallTraced via handle → dispatch → handleSetAttr → mutate → glUpdate")
}

// TestServerJournalMutation puts the MDS's journal append back under s.mu, as
// a synchronous append where a create commits: lockheld flags the fsync
// under the *Locked convention.
func TestServerJournalMutation(t *testing.T) {
	root := mutationRoot(t, "internal/server/server.go", "internal/server/handlers.go",
		"internal/server/durability.go", "internal/server/compound.go", "internal/server/store.go")
	requireClean(t, runOn(t, root, &LockHeld{}))
	mutate(t, root, "internal/server/handlers.go",
		"s.journal.Commit(rec)", "_, _ = s.journal.Log().Append(rec.RecType(), rec)")
	requireDiag(t, runOn(t, root, &LockHeld{}),
		"blocking WAL append (fsync) via .Append while holding s.mu (held by the *Locked convention")
}

// TestMonitorJournalMutation puts the Monitor's journal back under m.mu, as a
// synchronous append, and its cluster_info back on the connection's reader:
// lockheld flags the fsync under the *Locked convention, and inlinecheck the
// durability wait on the reader.
func TestMonitorJournalMutation(t *testing.T) {
	files := []string{"internal/monitor/monitor.go", "internal/monitor/journal.go", "internal/monitor/membership.go", "internal/monitor/globallayer.go"}
	t.Run("append under the lock", func(t *testing.T) {
		root := mutationRoot(t, files...)
		requireClean(t, runOn(t, root, &LockHeld{}))
		mutate(t, root, "internal/monitor/globallayer.go",
			"m.journal.Commit(u)", "_, _ = m.journal.Log().Append(u.RecType(), u)")
		requireDiag(t, runOn(t, root, &LockHeld{}),
			"blocking WAL append (fsync) via .Append while holding m.mu (held by the *Locked convention")
	})
	t.Run("cluster_info inline", func(t *testing.T) {
		check := &InlineCheck{Packages: []string{"internal/monitor"}}
		root := mutationRoot(t, files...)
		requireClean(t, runOn(t, root, check))
		mutate(t, root, "internal/monitor/monitor.go",
			"wire.DefaultServeWorkers, wire.TypeMonitorStats)", "wire.DefaultServeWorkers, wire.TypeClusterInfo, wire.TypeMonitorStats)")
		requireDiag(t, runOn(t, root, check), "wait via .Wait via handle → dispatch → durably")
	})
}
