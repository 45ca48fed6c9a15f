package monitor

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"d2tree/internal/namespace"
	"d2tree/internal/trace"
)

// Boot budget: what reading the benchmark's namespace snapshot (20k-node
// LMBE, 200k popularity events, seed 1) from a file and building the Monitor
// over it may allocate. The boot allocated 8.2 MB in 34.2k allocations
// before the read carved children from one slice and the split kept owners
// in a slice; it allocates about 4.5 MB in 5.7k now.
const (
	bootBytesBudget  = 5_500_000
	bootAllocsBudget = 7_000
)

// TestMonitorBootAllocs holds the Monitor's boot, read + New, to its byte
// and allocation budget. Each MiB a fresh process allocates costs it about
// 0.6 ms of first-touch page faults before any GC cycle (see
// BenchmarkColdStart in internal/server), so the bytes are boot time.
func TestMonitorBootAllocs(t *testing.T) {
	w, err := trace.BuildWorkload(trace.LMBE().Scale(20000), 200000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Tree.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ns.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	boot := func() *Monitor {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = f.Close() }()
		tree, err := namespace.ReadSnapshot(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(tree, Config{Servers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	_ = boot().Close() // opens what the first use of each package opens
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := boot()
	runtime.ReadMemStats(&after)
	_ = m.Close()
	size, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("read + New: %d bytes in %d allocations", size, allocs)
	if size > bootBytesBudget {
		t.Errorf("read + New allocated %d bytes, budget %d", size, bootBytesBudget)
	}
	if allocs > bootAllocsBudget {
		t.Errorf("read + New made %d allocations, budget %d", allocs, bootAllocsBudget)
	}
}
