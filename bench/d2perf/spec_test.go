package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// BENCHMARK.json and `d2perf -list` must name the same workloads and the
// same metrics, with the same units, directions and bounds, in the same
// order: the driver reads one and the harness emits the other.
func TestBenchmarkJSONMatchesList(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest map[string]interface{}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	// Round-trip -list through JSON so both sides hold the same Go types.
	raw, err := json.Marshal(listing())
	if err != nil {
		t.Fatal(err)
	}
	var list map[string]interface{}
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"workloads", "end_to_end", "per_layer"} {
		if !reflect.DeepEqual(manifest[section], list[section]) {
			t.Errorf("%s differs:\nBENCHMARK.json: %v\nd2perf -list:   %v", section, manifest[section], list[section])
		}
	}
	if got := manifest["run_seconds"]; got != float64(defaultSeconds) {
		t.Errorf("run_seconds = %v, d2perf defaults to %d", got, defaultSeconds)
	}
}

func TestListingNamesAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, w := range workloads {
		if seen[w.Name] {
			t.Errorf("workload %q listed twice", w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range append(comparedMetrics(), perLayer...) {
		if seen[m.Name] {
			t.Errorf("name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}
