package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"d2tree/internal/monitor"
	"d2tree/internal/obs"
	"d2tree/internal/server"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

func startCluster(t *testing.T) string {
	t.Helper()
	w, err := trace.BuildWorkload(trace.LMBE().Scale(500), 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(w.Tree, monitor.Config{Addr: "127.0.0.1:0", Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Close() })
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{
			Addr:              "127.0.0.1:0",
			MonitorAddr:       mon.Addr(),
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	return mon.Addr()
}

func TestCtlLookupCreateReaddirStats(t *testing.T) {
	addr := startCluster(t)
	var buf bytes.Buffer
	if err := run([]string{"-monitor", addr, "lookup", "/"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dir /") {
		t.Errorf("lookup output = %q", buf.String())
	}

	buf.Reset()
	if err := run([]string{"-monitor", addr, "readdir", "/"}, &buf); err != nil {
		t.Fatal(err)
	}
	if len(strings.TrimSpace(buf.String())) == 0 {
		t.Error("empty root listing")
	}
	child := strings.Fields(buf.String())[0]

	buf.Reset()
	p := "/" + child + "/ctl-made.txt"
	if err := run([]string{"-monitor", addr, "create", p, "file"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "file "+p) {
		t.Errorf("create output = %q", buf.String())
	}

	// When the created path landed in the global layer, replicas learn of
	// it via heartbeats (lease-bounded staleness), so retry briefly.
	deadline := time.Now().Add(3 * time.Second)
	for {
		buf.Reset()
		err := run([]string{"-monitor", addr, "setattr", p, "2048"}, &buf)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(buf.String(), "size=2048") {
		t.Errorf("setattr output = %q", buf.String())
	}

	buf.Reset()
	if err := run([]string{"-monitor", addr, "stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "mds-") != 2 {
		t.Errorf("stats output = %q", buf.String())
	}
	// Frames per read and per write, both sides of the wire, for the Monitor
	// and each MDS; the in-process cluster has served this test's own calls.
	if n := strings.Count(buf.String(), "wire serve frames in="); n != 3 {
		t.Errorf("stats prints %d wire serve lines, want 3:\n%s", n, buf.String())
	}
	if strings.Contains(buf.String(), "wire serve frames in=0 ") {
		t.Errorf("a serving loop counted no frames:\n%s", buf.String())
	}
	// The join and the heartbeats rode encoding/json, so the process-wide
	// count is non-zero on every line.
	if n := strings.Count(buf.String(), "wire codec fallbacks encode="); n != 3 {
		t.Errorf("stats prints %d codec fallback lines, want 3:\n%s", n, buf.String())
	}
	if strings.Contains(buf.String(), "fallbacks encode=0 ") {
		t.Errorf("no codec fallback counted, though joins and heartbeats have no hand codec:\n%s", buf.String())
	}
}

func TestCtlOpsAndEvents(t *testing.T) {
	addr := startCluster(t)
	var buf bytes.Buffer
	// Drive a couple of ops so histograms are non-empty on a server, and the
	// client_index/heartbeat traffic populates the monitor's.
	if err := run([]string{"-monitor", addr, "lookup", "/"}, &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-monitor", addr, "readdir", "/"}, &buf); err != nil {
		t.Fatal(err)
	}

	buf.Reset()
	if err := run([]string{"-monitor", addr, "-json", "ops"}, &buf); err != nil {
		t.Fatal(err)
	}
	var byNode map[string]map[string]wire.LatencySummary
	if err := json.Unmarshal(buf.Bytes(), &byNode); err != nil {
		t.Fatalf("ops -json output not JSON: %v\n%s", err, buf.String())
	}
	mon, ok := byNode["monitor"]
	if !ok {
		t.Fatalf("ops -json missing monitor node: %v", buf.String())
	}
	var monN uint64
	for _, s := range mon {
		monN += s.Count
	}
	if monN == 0 {
		t.Errorf("monitor op histograms all empty: %v", mon)
	}
	var serverN uint64
	for node, ops := range byNode {
		if !strings.HasPrefix(node, "mds-") {
			continue
		}
		for _, s := range ops {
			serverN += s.Count
		}
	}
	if serverN == 0 {
		t.Errorf("no server recorded any op: %v", byNode)
	}

	// Text mode renders one section per node.
	buf.Reset()
	if err := run([]string{"-monitor", addr, "ops"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "monitor") || !strings.Contains(buf.String(), "n=") {
		t.Errorf("ops text output = %q", buf.String())
	}

	// events -json emits one JSON object per line, each with a seq + node.
	buf.Reset()
	if err := run([]string{"-monitor", addr, "-json", "events"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("events -json produced no lines")
	}
	for _, ln := range lines[:min(len(lines), 5)] {
		var ev obs.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("event line not JSON: %v\n%s", err, ln)
		}
		if ev.Seq == 0 || ev.Node == "" {
			t.Errorf("event missing seq/node: %s", ln)
		}
	}

	buf.Reset()
	if err := run([]string{"-monitor", addr, "events"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "member_join") {
		t.Errorf("events text output missing member_join: %q", buf.String())
	}
}

func TestCtlArgValidation(t *testing.T) {
	addr := startCluster(t)
	for _, args := range [][]string{
		{"-monitor", addr},
		{"-monitor", addr, "lookup"},
		{"-monitor", addr, "create", "/x"},
		{"-monitor", addr, "setattr", "/x", "notanumber"},
		{"-monitor", addr, "unknown-cmd"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestCtlRename(t *testing.T) {
	addr := startCluster(t)
	// Find a deep renameable path via readdir walk: take any subtree root's
	// child through stats is overkill; instead create one under a deep dir.
	var buf bytes.Buffer
	if err := run([]string{"-monitor", addr, "readdir", "/"}, &buf); err != nil {
		t.Fatal(err)
	}
	child := strings.Fields(buf.String())[0]
	p := "/" + child + "/ctl-rn.txt"
	buf.Reset()
	if err := run([]string{"-monitor", addr, "create", p, "file"}, &buf); err != nil {
		t.Fatal(err)
	}
	// A create that landed in the global layer propagates to replicas via
	// heartbeats, so retry transient not-found; a "re-evaluation" refusal is
	// the designed outcome for global-layer paths.
	deadline := time.Now().Add(3 * time.Second)
	for {
		buf.Reset()
		err := run([]string{"-monitor", addr, "rename", p, "ctl-rn2.txt"}, &buf)
		if err == nil {
			break
		}
		if strings.Contains(err.Error(), "re-evaluation") {
			t.Skip("target landed in the global layer")
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(buf.String(), "ctl-rn2.txt") {
		t.Errorf("rename output = %q", buf.String())
	}
}
