package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func val(v, spread float64) metricValue { return metricValue{Value: v, Spread: &spread} }

func TestJudge(t *testing.T) {
	ops := metricDef{"ops_per_s", "ops/s", "higher", 0.08}
	p99 := metricDef{"p99_us", "us", "lower", 0.15}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b metricValue
		want string
	}{
		{"higher-is-better gain", ops, val(1000, 0.01), val(1200, 0.01), verdictBetter},
		{"higher-is-better loss", ops, val(1000, 0.01), val(900, 0.01), verdictWorse},
		{"inside the bound", ops, val(1000, 0.01), val(950, 0.02), verdictWithin},
		{"lower-is-better loss", p99, val(100, 0.02), val(120, 0.02), verdictWorse},
		{"lower-is-better gain", p99, val(100, 0.02), val(80, 0.02), verdictBetter},
		{"spread hides the change", ops, val(1000, 0.12), val(950, 0.03), verdictUnresolved},
		{"spread hides a bound-sized loss", ops, val(1000, 0.03), val(900, 0.12), verdictUnresolved},
		{"loss larger than a wide spread", ops, val(1000, 0.12), val(700, 0.12), verdictWorse},
		{"failed_share absolute", failedShare, val(0, 0), val(0.002, 0), verdictWorse},
		{"failed_share both zero", failedShare, val(0, 0), val(0, 0), verdictWithin},
		{"zero baseline, same", p99, val(0, 0), val(0, 0), verdictWithin},
		{"zero baseline, now positive", p99, val(0, 0), val(5, 0), verdictWorse},
	} {
		if got, _, _ := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func writeDoc(t *testing.T, dir, name string, opsPerS float64, invalid []string) string {
	t.Helper()
	doc := document{Benchmark: "d2perf", Seed: 1, Seconds: 20, Workloads: map[string]*workloadDoc{}}
	for _, wl := range workloads {
		doc.Workloads[wl.Name] = &workloadDoc{
			Invalid:   invalid,
			Attempted: 1000,
			EndToEnd: map[string]metricValue{
				"ops_per_s":    val(opsPerS, 0.01),
				"p50_us":       val(200, 0.01),
				"p99_us":       val(900, 0.05),
				"setup_s":      val(0.15, 0.05),
				"failed_share": {Unit: "ratio"},
			},
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "a.json", 70000, nil)
	same := writeDoc(t, dir, "b.json", 69000, nil)
	slow := writeDoc(t, dir, "c.json", 50000, nil)
	broken := writeDoc(t, dir, "d.json", 70000, []string{"1 member(s) declared dead"})

	var out bytes.Buffer
	if err := compareFiles(&out, base, same); err != nil {
		t.Fatalf("A against itself-ish: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), verdictWithin); n != len(workloads)*(len(endToEnd)+1) {
		t.Errorf("%d rows within, want one per workload and metric:\n%s", n, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, slow); !errors.Is(err, errWorse) {
		t.Fatalf("a 29%% throughput loss returned %v, want errWorse\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no row says worse:\n%s", out.String())
	}
	if err := compareFiles(&out, slow, base); err != nil {
		t.Errorf("a gain must not fail the comparison: %v", err)
	}
	if err := compareFiles(&out, base, broken); !errors.Is(err, errWorse) {
		t.Errorf("an invalid set returned %v, want errWorse", err)
	}
	if err := compareFiles(&out, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing document compared without error")
	}
}
