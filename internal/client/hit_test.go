package client_test

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"d2tree/internal/client"
	"d2tree/internal/monitor"
	"d2tree/internal/obs"
	"d2tree/internal/server"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// stubNode is a wire server with a test-supplied handler: a Monitor or MDS
// stand-in that shows the test exactly what the client sent.
type stubNode struct {
	ln net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

func startStub(t *testing.T, h wire.Handler) *stubNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &stubNode{ln: ln}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			n.mu.Lock()
			n.conns = append(n.conns, nc)
			n.mu.Unlock()
			go wire.Serve(nc, h)
		}
	}()
	t.Cleanup(n.stop)
	return n
}

func (n *stubNode) addr() string { return n.ln.Addr().String() }

// stop closes the listener and every accepted connection, so the address
// refuses dials from here on.
func (n *stubNode) stop() {
	_ = n.ln.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, nc := range n.conns {
		_ = nc.Close()
	}
	n.conns = nil
}

// stubCluster is a Monitor stand-in over a settable server list, plus the
// record of what the MDS stand-ins were sent.
type stubCluster struct {
	mon *stubNode

	mu       sync.Mutex
	servers  []string
	redirect map[string]string  // path → address a lookup is redirected to
	lookups  []string           // request IDs of the lookups seen, any MDS, in order
	hot      []map[string]int64 // HotPaths of every batch frame seen
}

const stubLeaseMS = 3_600_000

func startStubCluster(t *testing.T) *stubCluster {
	sc := &stubCluster{redirect: map[string]string{}}
	sc.mon = startStub(t, func(env *wire.Envelope) (interface{}, error) {
		if env.Type != wire.TypeClusterInfo {
			return nil, fmt.Errorf("stub monitor: unexpected %s", env.Type)
		}
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return &wire.ClusterInfoResponse{Servers: append([]string(nil), sc.servers...), IndexVer: 1}, nil
	})
	return sc
}

// startMDS adds an MDS stand-in that serves every path as a version-1 file
// under an hour's lease, and makes it the cluster's only server.
func (sc *stubCluster) startMDS(t *testing.T) *stubNode {
	entry := func(path string) *wire.Entry {
		return &wire.Entry{Path: path, Kind: wire.EntryFile, Version: 1}
	}
	var self *stubNode
	self = startStub(t, func(env *wire.Envelope) (interface{}, error) {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		switch env.Type {
		case wire.TypeLookup:
			var req wire.LookupRequest
			if err := env.Decode(&req); err != nil {
				return nil, err
			}
			sc.lookups = append(sc.lookups, env.ReqID)
			if to := sc.redirect[req.Path]; to != "" && to != self.addr() {
				return &wire.LookupResponse{Redirect: to}, nil
			}
			return &wire.LookupResponse{Entry: entry(req.Path), LeaseMS: stubLeaseMS, IndexVer: 1}, nil
		case wire.TypeBatch:
			var req wire.BatchRequest
			if err := env.Decode(&req); err != nil {
				return nil, err
			}
			sc.hot = append(sc.hot, req.HotPaths)
			resp := &wire.BatchResponse{Results: make([]wire.BatchResult, len(req.Ops))}
			for i, op := range req.Ops {
				resp.Results[i] = wire.BatchResult{Entry: entry(op.Path), LeaseMS: stubLeaseMS, IndexVer: 1}
			}
			return resp, nil
		}
		return nil, fmt.Errorf("stub mds: unexpected %s", env.Type)
	})
	sc.mu.Lock()
	sc.servers = []string{self.addr()}
	sc.mu.Unlock()
	return self
}

func (sc *stubCluster) connect(t *testing.T, cacheEntries int) *client.Client {
	t.Helper()
	c, err := client.Connect(client.Config{
		MonitorAddr:  sc.mon.addr(),
		Seed:         1,
		CacheEntries: cacheEntries,
		DialTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// lastHot returns the HotPaths of the latest batch frame an MDS received.
func (sc *stubCluster) lastHot(t *testing.T, frames int) map[string]int64 {
	t.Helper()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.hot) != frames {
		t.Fatalf("MDSs saw %d batch frames, want %d", len(sc.hot), frames)
	}
	return sc.hot[frames-1]
}

// TestBatchShipsPerPathHitCounts pins where cache-hit popularity lives: in
// the cache items. A Batch ships exactly the per-path hit counts since the
// last frame that landed; a frame that cannot be delivered puts them back;
// an entry evicted in between takes its count with it.
func TestBatchShipsPerPathHitCounts(t *testing.T) {
	sc := startStubCluster(t)
	mdsA := sc.startMDS(t)
	paths := []string{"/p/1", "/p/2", "/p/3", "/p/4"}
	c := sc.connect(t, len(paths)) // a full cache: one more path evicts

	hit := func(path string, n int) {
		t.Helper()
		before := c.CacheCounters().Hits
		for i := 0; i < n; i++ {
			if _, err := c.Lookup(path); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.CacheCounters().Hits - before; got != uint64(n) {
			t.Fatalf("%d lookups of %s were %d hits", n, path, got)
		}
	}
	// The frame's own sub-op looks up a resident path, so it evicts nothing.
	batch := func() []wire.BatchResult {
		t.Helper()
		res, err := c.Batch([]wire.BatchOp{{Op: wire.BatchLookup, Path: paths[3]}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, p := range paths {
		if _, err := c.Lookup(p); err != nil { // misses: fill the cache
			t.Fatal(err)
		}
	}
	hit(paths[0], 5)
	hit(paths[1], 3)
	hit(paths[2], 2)
	hit(paths[3], 1)
	if res := batch(); res[0].Err != "" {
		t.Fatalf("batch: %+v", res[0])
	}
	want := map[string]int64{paths[0]: 5, paths[1]: 3, paths[2]: 2, paths[3]: 1}
	if got := sc.lastHot(t, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("HotPaths = %v, want %v", got, want)
	}

	// Shipped counts are spent: a frame with no hits behind it carries none.
	if res := batch(); res[0].Err != "" {
		t.Fatalf("batch: %+v", res[0])
	}
	if got := sc.lastHot(t, 2); len(got) != 0 {
		t.Fatalf("HotPaths after an idle interval = %v, want none", got)
	}

	// New hits, then the only MDS goes away: the frame cannot be delivered.
	hit(paths[0], 2) // least recently used from here on: the next victim
	hit(paths[1], 4)
	hit(paths[2], 1)
	hit(paths[3], 1)
	mdsA.stop()
	if res := batch(); res[0].Err == "" {
		t.Fatalf("batch against a dead cluster settled: %+v", res[0])
	}
	sc.lastHot(t, 2) // no MDS saw a third frame

	// A new MDS joins. One miss evicts /p/1 and its restored count with it.
	sc.startMDS(t)
	if _, err := c.Lookup("/p/5"); err != nil {
		t.Fatal(err)
	}
	if res := batch(); res[0].Err != "" {
		t.Fatalf("batch: %+v", res[0])
	}
	want = map[string]int64{paths[1]: 4, paths[2]: 1, paths[3]: 1}
	if got := sc.lastHot(t, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("HotPaths after a failed frame and an eviction = %v, want %v", got, want)
	}
}

// TestEventRingHoldsOpsThatLeftTheProcess: cache hits are counters, not
// events. Ten thousand of them lap a 4096-slot ring two and a half times
// over; the miss and the redirected lookup that follow must both still be
// there, under the request identifiers the MDSs saw on the wire.
func TestEventRingHoldsOpsThatLeftTheProcess(t *testing.T) {
	sc := startStubCluster(t)
	mdsB := sc.startMDS(t)
	sc.startMDS(t) // A, the cluster's one listed server
	sc.mu.Lock()
	sc.redirect["/moved"] = mdsB.addr()
	sc.mu.Unlock()
	c := sc.connect(t, 64)

	if _, err := c.Lookup("/hot"); err != nil {
		t.Fatal(err)
	}
	const hits = 10_000
	if hits < 2*obs.DefaultRingSize {
		t.Fatal("not enough hits to lap the ring")
	}
	for i := 0; i < hits; i++ {
		if _, err := c.Lookup("/hot"); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.CacheCounters().Hits; got != hits {
		t.Fatalf("cache hits = %d, want %d", got, hits)
	}
	if _, err := c.Lookup("/cold"); err != nil { // a miss
		t.Fatal(err)
	}
	if e, err := c.Lookup("/moved"); err != nil || e.Path != "/moved" { // A redirects to B
		t.Fatalf("redirected lookup = %+v, %v", e, err)
	}

	// What the MDSs saw: /hot's fill, /cold, then /moved at A and again at B
	// under one identifier.
	sc.mu.Lock()
	seen := append([]string(nil), sc.lookups...)
	sc.mu.Unlock()
	if len(seen) != 4 || seen[2] != seen[3] {
		t.Fatalf("MDSs saw %+v, want 4 lookups, the last two sharing a request ID", seen)
	}
	events := c.Obs().Snapshot()
	if len(events) != 3 {
		t.Fatalf("ring holds %d events, want the 3 ops that went to the wire; the oldest is %+v", len(events), events[0])
	}
	for i, want := range []struct{ path, reqID string }{
		{"/hot", seen[0]}, {"/cold", seen[1]}, {"/moved", seen[2]},
	} {
		ev := events[i]
		if ev.Op != wire.TypeLookup || ev.Path != want.path || ev.ReqID != want.reqID || ev.ReqID == "" || ev.Err != "" {
			t.Errorf("event %d = %+v, want a clean lookup of %s under %q", i, ev, want.path, want.reqID)
		}
	}
}

// startHitCluster boots an in-process 2-MDS cluster that grants hour-long
// leases and a client with a 4096-entry cache holding n resident paths.
func startHitCluster(tb testing.TB, n int) (*client.Client, []string) {
	tb.Helper()
	w, err := trace.BuildWorkload(trace.LMBE().Scale(2*n), 1000, 9)
	if err != nil {
		tb.Fatal(err)
	}
	mon, err := monitor.New(w.Tree, monitor.Config{Addr: "127.0.0.1:0", Servers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = mon.Close() })
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{
			Addr:        "127.0.0.1:0",
			MonitorAddr: mon.Addr(),
			EntryLease:  time.Hour,
		})
		if err := srv.Start(); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = srv.Close() })
	}
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1, CacheEntries: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	var paths []string
	for _, node := range w.Tree.Nodes() {
		if len(paths) == n {
			break
		}
		p := w.Tree.Path(node)
		if _, err := c.Lookup(p); err != nil {
			tb.Fatalf("fill %s: %v", p, err)
		}
		paths = append(paths, p)
	}
	if len(paths) != n {
		tb.Fatalf("namespace has %d paths, want %d", len(paths), n)
	}
	return c, paths
}

var hitSink *wire.Entry

// TestLookupHitAllocatesOnlyTheCopy pins the cost of a lease-live hit: the
// entry handed to the caller is its only allocation.
func TestLookupHitAllocatesOnlyTheCopy(t *testing.T) {
	c, paths := startHitCluster(t, 256)
	before := c.CacheCounters()
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		hitSink, _ = c.Lookup(paths[i%len(paths)])
		i++
	})
	after := c.CacheCounters()
	if after.Misses != before.Misses || after.Hits-before.Hits != uint64(i) {
		t.Fatalf("not every lookup was a hit: %+v → %+v over %d lookups", before, after, i)
	}
	if allocs > 1 {
		t.Fatalf("a cache hit allocates %v times, want at most 1 (the returned copy)", allocs)
	}
}

// BenchmarkLookupHit is the leased-hit path end to end through the client's
// public API: 3 000 resident paths in a 4096-entry cache under an hour's
// lease, walked in a fixed scattered order so neither the map nor the slab
// is touched sequentially. hits/op must read 1: anything less means lookups
// went to the wire and ns/op is not the hit path's.
func BenchmarkLookupHit(b *testing.B) {
	c, paths := startHitCluster(b, 3000)
	before := c.CacheCounters().Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := c.Lookup(paths[i*7919%len(paths)])
		if err != nil {
			b.Fatal(err)
		}
		hitSink = e
	}
	b.StopTimer()
	b.ReportMetric(float64(c.CacheCounters().Hits-before)/float64(b.N), "hits/op")
}
