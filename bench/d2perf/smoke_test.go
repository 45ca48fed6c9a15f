package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// The echo rung re-executes this binary with echoEnv set; under `go test`
// that binary is the test binary, so it needs the same switch main has.
func TestMain(m *testing.M) {
	if os.Getenv(echoEnv) != "" {
		if err := echoMain(); err != nil {
			fmt.Fprintln(os.Stderr, "d2perf echo:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// TestSmokeCluster runs the real thing small: build the daemons, boot a
// cluster of child processes, drive the durable workload traced for 3 s on a
// 2k-node namespace, check the outputs, probe every rung, and leave nothing
// behind.
func TestSmokeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster of child processes")
	}
	d, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	if err := buildDaemons(d.root, d.bin); err != nil {
		t.Fatal(err)
	}
	// A private output directory, so a benchmark running beside the test
	// does not show up in the leftovers check.
	if d.out, err = os.MkdirTemp(d.out, "smoke-"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(d.out) }()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wl, _ := workloadByName("ra_durable")
	res, err := runOne(ctx, d, wl, smokeShape, 1, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Invalid) > 0 {
		t.Fatalf("run invalid: %v", res.Invalid)
	}
	if res.Attempted < 1000 || res.Failed != 0 {
		t.Errorf("attempted %d, failed %d: want a few thousand ops and no failure", res.Attempted, res.Failed)
	}
	for _, def := range perLayer {
		if _, ok := res.Metrics[def.Name]; !ok {
			t.Errorf("traced run did not report %s", def.Name)
		}
	}
	for _, name := range []string{"client.lookup_us", "server.lookup_us", "wire.echo_us", "wal.append_us", "wal.appends_per_flush"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	spans := filepath.Join(d.out, "spans-ra_durable.jsonl")
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Errorf("no spans written to %s (%v)", spans, err)
	}
	if left, _ := filepath.Glob(filepath.Join(d.out, "run-*")); len(left) > 0 {
		t.Errorf("run directories left behind: %v", left)
	}
	// Killed by process group and reaped: no daemon may outlive the run.
	if out, _ := exec.Command("pgrep", "-f", d.out).Output(); len(out) > 0 {
		t.Errorf("processes still running from %s: %s", d.out, out)
	}
}
