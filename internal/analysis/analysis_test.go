package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the want.txt goldens from current analyzer output:
//
//	go test ./internal/analysis -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

// goldenCase runs analyzers over testdata/<name> and compares the rendered
// diagnostics (paths relative to the case root) against <case>/want.txt.
// When withIgnores is set, //d2vet:ignore directives are applied and
// suppressed findings are listed with a "suppressed: " prefix, mirroring the
// d2vet -v output.
type goldenCase struct {
	name        string
	analyzers   []Analyzer
	withIgnores bool
}

func TestGolden(t *testing.T) {
	cases := []goldenCase{
		{name: "lockheld", analyzers: []Analyzer{&LockHeld{}}},
		{name: "determinism", analyzers: []Analyzer{&Determinism{Packages: []string{"det"}}}},
		{name: "wirecheck", analyzers: []Analyzer{&WireCheck{WirePackage: "wire", MessagesFile: "messages.go", EnvelopeStruct: "Envelope"}}},
		{name: "statcheck", analyzers: []Analyzer{&StatCheck{Packages: []string{"stats"}}}},
		{name: "codeccheck", analyzers: []Analyzer{&CodecCheck{WirePackage: "wire", CodecFile: "payload_fast.go", MessagesFile: "messages.go"}}},
		{name: "leasecheck", analyzers: []Analyzer{&LeaseCheck{WirePackage: "wire", ServerPackage: "server", ClientPackage: "client"}}, withIgnores: true},
		{name: "goroutinecheck", analyzers: []Analyzer{&GoroutineCheck{Packages: []string{"wire", "server"}}}},
		{name: "inlinecheck", analyzers: []Analyzer{&InlineCheck{Packages: []string{"server"}}}},
		{name: "ignore", analyzers: []Analyzer{&LockHeld{}}, withIgnores: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := filepath.Join("testdata", tc.name)
			got := renderCase(t, root, tc)
			want := filepath.Join(root, "want.txt")
			if *update {
				if err := os.WriteFile(want, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(want)
			if err != nil {
				t.Fatalf("missing golden (run go test -update): %v", err)
			}
			if got != string(data) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, data)
			}
		})
	}
}

func renderCase(t *testing.T, root string, tc goldenCase) string {
	t.Helper()
	m, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	for _, a := range tc.analyzers {
		diags = append(diags, a.Run(m)...)
	}
	var suppressed []Diagnostic
	if tc.withIgnores {
		dirs, malformed := CollectDirectives(m)
		diags = append(diags, malformed...)
		diags, suppressed = Filter(diags, dirs)
	}
	SortDiagnostics(diags)
	SortDiagnostics(suppressed)
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(relDiag(root, d) + "\n")
	}
	for _, d := range suppressed {
		b.WriteString("suppressed: " + relDiag(root, d) + "\n")
	}
	return b.String()
}

// relDiag renders a diagnostic with its path relative to the case root so
// goldens do not depend on where the test runs.
func relDiag(root string, d Diagnostic) string {
	s := d.String()
	prefix := filepath.ToSlash(root) + "/"
	return strings.TrimPrefix(filepath.ToSlash(s), prefix)
}

func TestDefaultAnalyzers(t *testing.T) {
	all := Default()
	if len(all) != 8 {
		t.Fatalf("Default() returned %d analyzers, want 8", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name() == "" || a.Doc() == "" {
			t.Errorf("analyzer %T has empty Name or Doc", a)
		}
		if seen[a.Name()] {
			t.Errorf("duplicate analyzer name %q", a.Name())
		}
		seen[a.Name()] = true
	}
}

func TestMalformedDirectiveReported(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "ignore"))
	if err != nil {
		t.Fatal(err)
	}
	_, malformed := CollectDirectives(m)
	if len(malformed) != 1 {
		t.Fatalf("got %d malformed-directive diagnostics, want 1", len(malformed))
	}
	if malformed[0].Rule != "d2vet" {
		t.Errorf("malformed directive reported under rule %q, want d2vet", malformed[0].Rule)
	}
}
