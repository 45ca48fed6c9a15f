package analysis

import (
	"os"
	"path/filepath"
	"slices"
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

func newCodecCheck() Analyzer {
	return &CodecCheck{WirePackage: "internal/wire", CodecFile: "payload_fast.go", MessagesFile: "messages.go"}
}

// TestCodecCheckMutation drops the leaseMs emission from appendEntryResponse:
// the exact field-drift a hand codec accumulates when a struct grows.
func TestCodecCheckMutation(t *testing.T) {
	root := mutationRoot(t, "internal/wire/messages.go", "internal/wire/payload_fast.go")
	requireClean(t, runOn(t, root, newCodecCheck()))

	mutate(t, root, "internal/wire/payload_fast.go",
		"`\"leaseMs\":`", "`\"lms\":`")
	diags := runOn(t, root, newCodecCheck())
	requireDiag(t, diags, `never emits json key "leaseMs"`)
	requireDiag(t, diags, `json key "lms" which is not a field`)
}

func newLeaseCheck() Analyzer {
	return &LeaseCheck{WirePackage: "internal/wire", ServerPackage: "internal/server", ClientPackage: "internal/client"}
}

// TestLeaseCheckMutation reintroduces both halves of the §8b gap this PR
// closed for Create: a response struct losing a lease field, and a handler
// literal shipping an entry without stamping the grant.
func TestLeaseCheckMutation(t *testing.T) {
	t.Run("wire struct loses lease field", func(t *testing.T) {
		root := mutationRoot(t, "internal/wire/messages.go", "internal/server/handlers.go")
		requireClean(t, runOn(t, root, newLeaseCheck()))

		mutate(t, root, "internal/wire/messages.go",
			"IndexVer int64", "IndexVerX int64")
		requireDiag(t, runOn(t, root, newLeaseCheck()),
			"declares no LeaseMS/IndexVer lease fields")
	})
	t.Run("handler literal skips the stamp", func(t *testing.T) {
		root := mutationRoot(t, "internal/wire/messages.go", "internal/server/handlers.go")
		mutate(t, root, "internal/server/handlers.go",
			"Entry: &cp, LeaseMS: leaseMS, ", "Entry: &cp, ")
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
// SetAttr parks on its WAL ticket, or on the Monitor for a global-layer path.
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
	requireDiag(t, diags, "wait via .Wait via handle → dispatch → handleSetAttr → waitDurable")
	requireDiag(t, diags, "RPC call via .CallTraced via handle → dispatch → handleSetAttr → glUpdate")
}

// TestCodecCheckUncovered keeps the exempt roster visible: structs with no
// fast codec must be a deliberate, enumerable set.
func TestCodecCheckUncovered(t *testing.T) {
	m, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	a := newCodecCheck().(*CodecCheck)
	uncovered := a.Uncovered(m)
	covered := map[string]bool{
		"LookupRequest": true, "ReaddirRequest": true, "CreateRequest": true,
		"EntryResponse": true, "SetAttrRequest": true,
		"GLUpdateRequest": true, "GLUpdateResponse": true,
		"RevalidateRequest": true, "RevalidateResponse": true,
		"ReaddirPlusRequest": true, "ReaddirPlusResponse": true,
		"CreateWithAttrsRequest": true, "BatchRequest": true, "BatchResponse": true,
	}
	for _, name := range uncovered {
		if covered[name] {
			t.Errorf("%s reported uncovered but has a fast codec", name)
		}
	}
	// The per-op names of EntryResponse are aliases, not structs of their own:
	// none may be listed as a message that rides encoding/json.
	for _, alias := range []string{"LookupResponse", "CreateResponse", "CreateWithAttrsResponse", "SetAttrResponse", "RenameResponse"} {
		if slices.Contains(uncovered, alias) {
			t.Errorf("%s reported uncovered: it is EntryResponse, which has a fast codec", alias)
		}
	}
	if len(uncovered) == 0 {
		t.Fatal("expected some encoding/json-only structs in the roster")
	}
}
