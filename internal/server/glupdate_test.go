package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2tree/internal/client"
	"d2tree/internal/monitor"
	"d2tree/internal/namespace"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// startQuiet boots a Monitor and n MDSs in this process with the timers
// turned off: no heartbeat goes out unless the test calls heartbeatOnce, and
// nobody is declared dead for want of one. Each MDS journals to a directory
// of its own when durable is set.
func startQuiet(tb testing.TB, n int, durable bool) (*monitor.Monitor, []*Server) {
	tb.Helper()
	w, err := trace.BuildWorkload(trace.LMBE().Scale(2000), 8000, 42)
	if err != nil {
		tb.Fatal(err)
	}
	mon, err := monitor.New(w.Tree, monitor.Config{Addr: "127.0.0.1:0", Servers: n, HeartbeatTimeout: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = mon.Close() })
	servers := make([]*Server, n)
	for i := range servers {
		cfg := Config{Addr: "127.0.0.1:0", MonitorAddr: mon.Addr(), HeartbeatInterval: time.Hour}
		if durable {
			cfg.WALDir = tb.TempDir()
		}
		servers[i] = New(cfg)
		if err := servers[i].Start(); err != nil {
			tb.Fatalf("server %d: %v", i, err)
		}
		tb.Cleanup(func() { _ = servers[i].Close() })
	}
	return mon, servers
}

// layerPaths returns the paths s holds in the global layer, and the files it
// holds in the local layer.
func layerPaths(s *Server) (global, localFiles []string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.store.walk("/", func(e *wire.Entry, gl bool) {
		switch {
		case gl:
			global = append(global, e.Path)
		case e.Kind == wire.EntryFile:
			localFiles = append(localFiles, e.Path)
		}
	})
	return global, localFiles
}

// TestGLReplicasCatchUpAfterInterleavedUpdates is the regression for the
// stale replica the benchmark counted (monitor.gl_stale_replicas): two MDSs
// take turns updating distinct global-layer paths, so each one's updates are
// separated by the other's. A replica used to fast-forward its glVersion to
// whatever its own update returned, claim on its next heartbeat to be current,
// and never be sent what the other had committed in between. Now a replica
// advances only over an update it applied; after one heartbeat each, both
// serve every acked version.
func TestGLReplicasCatchUpAfterInterleavedUpdates(t *testing.T) {
	mon, servers := startQuiet(t, 2, false)
	global, _ := layerPaths(servers[0])
	if len(global) < 8 {
		t.Fatalf("global layer has %d paths, want >= 8", len(global))
	}
	global = global[:8]
	acked := map[string]int64{}
	for i, path := range global {
		resp, err := servers[i%2].handleSetAttr(&wire.Envelope{}, &wire.SetAttrRequest{Path: path, Size: int64(100 + i), Mode: 0o600})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Entry == nil || resp.Entry.Size != int64(100+i) {
			t.Fatalf("setattr %s answered %+v", path, resp)
		}
		acked[path] = resp.Entry.Version
	}
	for i, s := range servers {
		s.mu.RLock()
		glv := s.glVersion
		s.mu.RUnlock()
		if glv >= mon.GLVersion() {
			t.Errorf("mds %d claims GL version %d of %d without having seen the other's updates", i, glv, mon.GLVersion())
		}
		s.heartbeatOnce()
	}
	for i, s := range servers {
		for path, version := range acked {
			resp, err := s.handleLookup(&wire.LookupRequest{Path: path})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Entry.Version < version {
				t.Errorf("mds %d serves %s at version %d after its heartbeat; version %d was acked", i, path, resp.Entry.Version, version)
			}
		}
		s.mu.RLock()
		glv := s.glVersion
		s.mu.RUnlock()
		if glv != mon.GLVersion() {
			t.Errorf("mds %d is at GL version %d after its heartbeat, the Monitor at %d", i, glv, mon.GLVersion())
		}
	}

	// With nobody else writing, a replica's own updates are consecutive: it
	// keeps up by applying them and its next heartbeat has nothing to fetch.
	for i := 0; i < 3; i++ {
		if _, err := servers[0].handleSetAttr(&wire.Envelope{}, &wire.SetAttrRequest{Path: global[0], Size: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	servers[0].mu.RLock()
	glv := servers[0].glVersion
	servers[0].mu.RUnlock()
	if glv != mon.GLVersion() {
		t.Errorf("sole writer is at GL version %d after its own updates, the Monitor at %d", glv, mon.GLVersion())
	}
}

// TestSetAttrRecordSize: a setattr of a file at a 42-byte path takes at most
// 64 bytes of log (152 in the JSON-era log), the record's length and CRC
// included. It is the 300th, so its number, size and version take two bytes
// each.
func TestSetAttrRecordSize(t *testing.T) {
	const path = "/r/project-src-internal-server-handlers.go"
	if len(path) != 42 {
		t.Fatalf("the path is %d bytes", len(path))
	}
	s := newDurableServer(t, t.TempDir())
	env := &wire.Envelope{}
	if _, err := s.handleInstall(env, &wire.InstallRequest{Tree: tree("/r", []wire.Entry{
		{Path: "/r", Kind: wire.EntryDir, Version: 1},
		{Path: path, Kind: wire.EntryFile, Version: 1},
	})}); err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		fi, err := os.Stat(s.walPath())
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	var before int64
	for i := 1; i <= 300; i++ {
		before = size()
		if _, err := s.handleSetAttr(env, &wire.SetAttrRequest{Path: path, Size: int64(100 + i), Mode: 0o644}); err != nil {
			t.Fatal(err)
		}
	}
	if got := size() - before; got > 64 {
		t.Errorf("a setattr record takes %d bytes, want at most 64", got)
	}
}

// BenchmarkSetAttrInproc is one setattr end to end in one process: a client,
// an MDS journaling to a temp dir, the Monitor. local updates a file the MDS
// owns (decode, commit, group-commit fsync, encode); gl updates a
// global-layer path, which the MDS forwards to the Monitor as a gl_update
// (two more hops, no fsync: the MDS does not journal GL state). It reports
// ns/op and allocs/op for all three parties. Run it at -cpu 1, as the
// benchmark's processes run.
func BenchmarkSetAttrInproc(b *testing.B) {
	for _, layer := range []string{"local", "gl"} {
		b.Run(layer, func(b *testing.B) {
			mon, servers := startQuiet(b, 1, true)
			c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			global, localFiles := layerPaths(servers[0])
			path := global[len(global)-1]
			if layer == "local" {
				path = localFiles[0]
			}
			if _, err := c.SetAttr(path, 1, 0o644); err != nil { // dials, and sizes the buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := c.SetAttr(path, int64(i), 0o644)
				if err != nil {
					b.Fatal(err)
				}
				if e.Size != int64(i) {
					b.Fatal(fmt.Errorf("setattr %s to size %d answered %+v", path, i, e))
				}
			}
		})
	}
}

// BenchmarkGLUpdateJournaled is the global-layer write path with the
// Monitor's journal off and on: an in-process Monitor (journaling to a temp
// dir for journal=on), 2 MDSs heartbeating every 10 ms, and 1 or 8 writers
// setting attributes on global-layer paths through clients that share one
// Transport. Each MDS forwards the write to the Monitor, which answers once
// it is durable. It reports setattrs/s, the Monitor's heartbeat p99 over the
// run, and the journal's records per fsync window.
func BenchmarkGLUpdateJournaled(b *testing.B) {
	for _, journal := range []string{"off", "on"} {
		for _, writers := range []int{1, 8} {
			b.Run(fmt.Sprintf("journal=%s/writers=%d", journal, writers), func(b *testing.B) {
				benchGLUpdateJournaled(b, journal == "on", writers)
			})
		}
	}
}

// BenchmarkColdStart is a cluster boot in one process, phase by phase, over
// the benchmark's namespace (20k-node LMBE, 200k popularity events, seed 1):
// the Monitor reads its binary snapshot from a file, as d2monitor -snapshot
// does (read-ms), and computes the initial split (split-ms), two MDSs join
// and install their share (join-ms: each MDS's join call, join-rpc-ms, and
// its install, install-ms, as its "joined" event reports them), and a
// client resolves 64 paths (probe-ms). These are the steps behind the
// benchmark's setup_s, less process start; allocs/op counts all four.
// read-MB, split-MB, join-MB and probe-MB are the bytes each phase
// allocates (runtime.MemStats.TotalAlloc). join-bytes is the payload of both
// join answers.
//
// A daemon pays for its bytes beyond what this rung times: in a fresh
// process each MiB it allocates first costs about 0.6 ms of page faults (2.3
// to 2.5 µs per 4 KiB page, first-touching a new 32 MiB allocation on a
// 2-vCPU Xeon VM), before any GC cycle, while this process has faulted its
// heap in by the second iteration.
func BenchmarkColdStart(b *testing.B) {
	w, err := trace.BuildWorkload(trace.LMBE().Scale(20000), 200000, 1)
	if err != nil {
		b.Fatal(err)
	}
	snap := filepath.Join(b.TempDir(), "ns.bin")
	if err := writeSnapshotFile(snap, w.Tree); err != nil {
		b.Fatal(err)
	}
	nodes := w.Tree.Nodes()
	rng := rand.New(rand.NewSource(1))
	probes := make([]string, 64)
	for i := range probes {
		probes[i] = w.Tree.Path(nodes[rng.Intn(len(nodes))])
	}
	joinBytes := joinPayloads(b, snap)
	var phases coldPhases
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldStart(b, snap, probes, &phases)
	}
	for i, unit := range []string{"read-ms", "split-ms", "join-ms", "probe-ms", "join-rpc-ms", "install-ms"} {
		b.ReportMetric(float64(phases.times[i].Microseconds())/1000/float64(b.N), unit)
	}
	for i, unit := range []string{"read-MB", "split-MB", "join-MB", "probe-MB"} {
		b.ReportMetric(float64(phases.bytes[i])/1e6/float64(b.N), unit)
	}
	b.ReportMetric(float64(joinBytes), "join-bytes")
}

// coldPhases sums the cold start's phases over the iterations: the times of
// read, split, join, probe, join call and install, and the bytes allocated
// by the first four.
type coldPhases struct {
	times [6]time.Duration
	bytes [4]uint64
}

// writeSnapshotFile writes t's namespace snapshot to path.
func writeSnapshotFile(path string, t *namespace.Tree) error {
	var buf bytes.Buffer
	if err := t.WriteSnapshot(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// readSnapshotFile reads the namespace snapshot at path.
func readSnapshotFile(path string) (*namespace.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	return namespace.ReadSnapshot(f)
}

// joinPayloads boots a Monitor from snap, joins it twice by hand and returns
// the payload bytes of both answers.
func joinPayloads(b *testing.B, snap string) int {
	tree, err := readSnapshotFile(snap)
	if err != nil {
		b.Fatal(err)
	}
	mon, err := monitor.New(tree, monitor.Config{Addr: "127.0.0.1:0", Servers: 2, HeartbeatTimeout: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	conn, err := wire.DialCall(mon.Addr(), time.Second, 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	total := 0
	for _, addr := range []string{"10.0.0.1:1", "10.0.0.2:2"} {
		var join wire.JoinResponse
		if err := conn.Call(wire.TypeJoin, &wire.JoinRequest{Addr: addr}, &join); err != nil {
			b.Fatal(err)
		}
		env, err := wire.NewEnvelope(0, wire.TypeJoin, &join)
		if err != nil {
			b.Fatal(err)
		}
		total += len(env.Payload)
	}
	return total
}

// joinedPhases reads an MDS's "joined" event: how long its join call and
// its install took.
func joinedPhases(b *testing.B, s *Server) (rpc, install time.Duration) {
	events, _ := s.Obs().Since(0, 0)
	for _, ev := range events {
		if ev.Op != "joined" {
			continue
		}
		var rpcMS, installMS float64
		var n int
		if _, err := fmt.Sscanf(ev.Detail, "join rpc %f ms, %d entries installed in %f ms", &rpcMS, &n, &installMS); err != nil {
			b.Fatalf("joined event %q: %v", ev.Detail, err)
		}
		return time.Duration(rpcMS * float64(time.Millisecond)), time.Duration(installMS * float64(time.Millisecond))
	}
	b.Fatal("no joined event")
	return 0, 0
}

// coldStart boots one cluster from the snapshot at snap, adds each phase's
// time and bytes to phases, and shuts the cluster down off the clock.
func coldStart(b *testing.B, snap string, probes []string, phases *coldPhases) {
	var up []io.Closer
	defer func() {
		b.StopTimer()
		for i := len(up) - 1; i >= 0; i-- {
			_ = up[i].Close()
		}
		b.StartTimer()
	}()
	var ms runtime.MemStats
	var at [5]time.Time
	var alloc [5]uint64
	mark := func(i int) {
		runtime.ReadMemStats(&ms)
		at[i], alloc[i] = time.Now(), ms.TotalAlloc
	}
	mark(0)
	tree, err := readSnapshotFile(snap)
	if err != nil {
		b.Fatal(err)
	}
	mark(1)
	mon, err := monitor.New(tree, monitor.Config{Addr: "127.0.0.1:0", Servers: 2, HeartbeatTimeout: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		b.Fatal(err)
	}
	up = append(up, mon)
	mark(2)
	for i := 0; i < 2; i++ {
		s := New(Config{Addr: "127.0.0.1:0", MonitorAddr: mon.Addr(), HeartbeatInterval: time.Hour})
		if err := s.Start(); err != nil {
			b.Fatal(err)
		}
		up = append(up, s)
		rpc, install := joinedPhases(b, s)
		phases.times[4] += rpc
		phases.times[5] += install
	}
	mark(3)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	up = append(up, c)
	for _, p := range probes {
		if _, err := c.Lookup(p); err != nil {
			b.Fatalf("probe %s: %v", p, err)
		}
	}
	mark(4)
	for i := range 4 {
		phases.times[i] += at[i+1].Sub(at[i])
		phases.bytes[i] += alloc[i+1] - alloc[i]
	}
}

func benchGLUpdateJournaled(b *testing.B, journal bool, writers int) {
	w, err := trace.BuildWorkload(trace.LMBE().Scale(2000), 8000, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := monitor.Config{Addr: "127.0.0.1:0", Servers: 2, HeartbeatTimeout: time.Hour}
	if journal {
		cfg.WALPath = filepath.Join(b.TempDir(), "monitor.wal")
	}
	mon, err := monitor.New(w.Tree, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = mon.Close() })
	var global []string
	for i := 0; i < 2; i++ {
		s := New(Config{Addr: "127.0.0.1:0", MonitorAddr: mon.Addr(), HeartbeatInterval: 10 * time.Millisecond})
		if err := s.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = s.Close() })
		global, _ = layerPaths(s)
	}
	tr := client.NewTransport(0, 0)
	b.Cleanup(func() { _ = tr.Close() })
	clients := make([]*client.Client, writers)
	for i := range clients {
		if clients[i], err = client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: int64(i + 1), Transport: tr}); err != nil {
			b.Fatal(err)
		}
		defer func() { _ = clients[i].Close() }()
		if _, err := clients[i].SetAttr(global[i%len(global)], 1, 0o644); err != nil { // dials, and sizes the buffers
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
				if _, err := c.SetAttr(global[i%len(global)], n, 0o644); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "setattrs/s")
	dump, err := clients[0].MonitorObsDump(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(dump.Ops[wire.TypeHeartbeat].P99US), "hb-p99-µs")
	if journal {
		st, err := clients[0].MonitorStats()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.JournalAppends)/float64(max(st.JournalFlushes, 1)), "appends/flush")
	}
}
