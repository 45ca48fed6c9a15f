package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const dirtyTree = "../../internal/analysis/testdata/lockheld"

func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodeOnFindings(t *testing.T) {
	code, out, _ := runVet(t, dirtyTree)
	if code != 1 {
		t.Fatalf("exit code %d on a tree with violations, want 1", code)
	}
	if !strings.Contains(out, "[lockheld]") {
		t.Errorf("output missing lockheld diagnostics:\n%s", out)
	}
}

func TestRulesFilter(t *testing.T) {
	// The lockheld tree has no wirecheck violations, so restricting rules
	// makes the same tree pass.
	code, out, _ := runVet(t, "-rules", "wirecheck", dirtyTree)
	if code != 0 {
		t.Fatalf("exit code %d with -rules wirecheck, want 0; output:\n%s", code, out)
	}
}

func TestUnknownRule(t *testing.T) {
	code, _, errb := runVet(t, "-rules", "nosuchrule", dirtyTree)
	if code != 2 {
		t.Fatalf("exit code %d for unknown rule, want 2", code)
	}
	if !strings.Contains(errb, "nosuchrule") {
		t.Errorf("stderr does not name the bad rule: %q", errb)
	}
}

func TestDotDotDotSuffixAccepted(t *testing.T) {
	code, _, _ := runVet(t, dirtyTree+"/...")
	if code != 1 {
		t.Fatalf("exit code %d with /... suffix, want 1", code)
	}
}

func TestListRules(t *testing.T) {
	code, out, _ := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit code %d, want 0", code)
	}
	for _, name := range []string{
		"lockheld", "determinism", "wirecheck", "statcheck",
		"leasecheck", "goroutinecheck", "inlinecheck",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

func TestRuleAliasSelects(t *testing.T) {
	// -rule is an alias of -rules: selecting only lockheld still fails the
	// dirty tree, while the goroutinecheck-only run passes it.
	code, out, _ := runVet(t, "-rule", "lockheld", dirtyTree)
	if code != 1 || !strings.Contains(out, "[lockheld]") {
		t.Fatalf("-rule lockheld: exit %d, output:\n%s", code, out)
	}
	code, out, _ = runVet(t, "-rule", "goroutinecheck", dirtyTree)
	if code != 0 {
		t.Fatalf("-rule goroutinecheck: exit %d, want 0; output:\n%s", code, out)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := runVet(t, "-json", dirtyTree)
	if code != 1 {
		t.Fatalf("-json exit code %d on dirty tree, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) == 0 {
		t.Fatal("-json produced no output on a dirty tree")
	}
	for _, line := range lines {
		var d struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
			Rule string `json:"rule"`
			Msg  string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("non-JSON line %q: %v", line, err)
		}
		if d.File == "" || d.Line == 0 || d.Rule == "" || d.Msg == "" {
			t.Errorf("incomplete diagnostic: %q", line)
		}
	}
}

func TestJSONCleanTreeEmpty(t *testing.T) {
	code, out, _ := runVet(t, "-json", "-rules", "wirecheck", dirtyTree)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("-json on a clean run must print nothing, got:\n%s", out)
	}
}

func TestStaleIgnoreWarned(t *testing.T) {
	// The ignore tree's wrongRule directive names determinism, which fires
	// nothing there: on a full run it is stale and warned on stderr (the
	// exit code stays driven by the surviving findings alone).
	ignoreTree := "../../internal/analysis/testdata/ignore"
	code, _, errb := runVet(t, ignoreTree)
	if code != 1 {
		t.Fatalf("exit %d on ignore tree, want 1", code)
	}
	if !strings.Contains(errb, "stale ignore") || !strings.Contains(errb, "determinism") {
		t.Errorf("full run did not warn about the stale determinism directive:\n%s", errb)
	}

	// Scoping: with only lockheld selected, neither the determinism
	// directive (rule did not run) nor the "all" directive (selection
	// incomplete) may be called stale.
	_, _, errb = runVet(t, "-rules", "lockheld", ignoreTree)
	if strings.Contains(errb, "stale ignore") {
		t.Errorf("partial -rules run reported stale ignores:\n%s", errb)
	}
}

func TestSelfCheck(t *testing.T) {
	// The repository itself must stay d2vet-clean: same gate as make lint.
	code, out, errb := runVet(t, "../..")
	if code != 0 {
		t.Fatalf("d2vet is not clean on its own repository (exit %d):\n%s%s", code, out, errb)
	}
}
