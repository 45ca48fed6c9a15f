package server

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"d2tree/internal/client"
	"d2tree/internal/monitor"
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

// TestWalEntryRecAppendsWhatItMarshals holds the record's own encoder to the
// bytes encoding/json wrote for it (the log's format did not change), and for
// the strings encoding/json escapes for HTML's sake or repairs, to the same
// value on replay.
func TestWalEntryRecAppendsWhatItMarshals(t *testing.T) {
	for _, e := range []wire.Entry{
		{},
		{Path: "/home/user0/project/src/main.go", Kind: wire.EntryFile, Size: 4096, Mode: 0o644, Version: 7},
		{Path: "/d", Kind: wire.EntryDir, Version: 1},
		{Path: "quotes \" and \\ and\nnewline\x01", Kind: wire.EntryFile, Size: -1, Mode: 1<<32 - 1, Version: -9},
	} {
		rec := &walEntryRec{Entry: e}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.AppendJSON(nil); string(got) != string(want) {
			t.Errorf("AppendJSON wrote %s, encoding/json %s", got, want)
		}
	}
	for _, path := range []string{"/a/<b>&c", "line\u2028sep", "bad \xff utf8"} {
		rec := &walEntryRec{Entry: wire.Entry{Path: path, Kind: wire.EntryFile, Version: 2}}
		marshalled, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var got, want walEntryRec
		if err := json.Unmarshal(rec.AppendJSON(nil), &got); err != nil {
			t.Fatalf("AppendJSON of %q does not replay: %v", path, err)
		}
		if err := json.Unmarshal(marshalled, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q replays as %+v, the marshalled record as %+v", path, got, want)
		}
	}
}

// BenchmarkSetAttrInproc is one setattr end to end in one process: a client,
// an MDS journaling to a temp dir, the Monitor. local updates a file the MDS
// owns (decode, commit, group-commit fsync, encode); gl updates a
// global-layer path, which the MDS forwards to the Monitor as a gl_update
// (two more hops, no fsync: the MDS does not journal GL state). Beside ns/op
// and allocs/op for all three parties it reports how many payloads per op
// went through encoding/json: 0, unless a message on this path has lost its
// hand codec. Run it at -cpu 1, as the benchmark's processes run.
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
			before := wire.CodecFallbacks.Snapshot()
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
			b.StopTimer()
			after := wire.CodecFallbacks.Snapshot()
			b.ReportMetric(float64(after.Encode-before.Encode+after.Decode-before.Decode)/float64(b.N), "fallbacks/op")
		})
	}
}
