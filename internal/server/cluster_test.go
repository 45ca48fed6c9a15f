package server_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"d2tree/internal/client"
	"d2tree/internal/monitor"
	"d2tree/internal/namespace"
	"d2tree/internal/server"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// startCluster boots a Monitor plus n MDSs over a workload tree and returns
// them with a cleanup function.
func startCluster(t *testing.T, n int, treeNodes int) (*monitor.Monitor, []*server.Server, *namespace.Tree) {
	t.Helper()
	w, err := trace.BuildWorkload(trace.LMBE().Scale(treeNodes), treeNodes*4, 42)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(w.Tree, monitor.Config{
		Addr:             "127.0.0.1:0",
		Servers:          n,
		HeartbeatTimeout: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Close() })

	servers := make([]*server.Server, 0, n)
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{
			Addr:              "127.0.0.1:0",
			MonitorAddr:       mon.Addr(),
			HeartbeatInterval: 50 * time.Millisecond,
		})
		if err := srv.Start(); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		servers = append(servers, srv)
	}
	return mon, servers, w.Tree
}

func connect(t *testing.T, mon *monitor.Monitor) *client.Client {
	t.Helper()
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// eventually polls cond until it returns nil or the deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(d)
	var last error
	for time.Now().Before(deadline) {
		if last = cond(); last == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("condition not met within %v: %v", d, last)
}

func TestClusterLookupEverywhere(t *testing.T) {
	mon, _, tree := startCluster(t, 3, 600)
	c := connect(t, mon)
	// Every namespace path must be resolvable through the client.
	checked := 0
	for _, n := range tree.Nodes() {
		if checked >= 200 {
			break
		}
		p := tree.Path(n)
		e, err := c.Lookup(p)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", p, err)
		}
		if e == nil || e.Path != p {
			t.Fatalf("Lookup(%q) returned %+v", p, e)
		}
		wantKind := wire.EntryDir
		if !n.IsDir() {
			wantKind = wire.EntryFile
		}
		if e.Kind != wantKind {
			t.Fatalf("Lookup(%q) kind = %v, want %v", p, e.Kind, wantKind)
		}
		checked++
	}
	if _, err := c.Lookup("/definitely/not/there"); err == nil {
		t.Error("lookup of missing path succeeded")
	}
}

func TestClusterReaddirRoot(t *testing.T) {
	mon, _, tree := startCluster(t, 2, 300)
	c := connect(t, mon)
	names, err := c.Readdir("/")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, child := range tree.Root().Children() {
		want[child.Name()] = true
	}
	// The serving MDS lists at least its locally hosted children; the root
	// is GL so all GL children must appear.
	if len(names) == 0 {
		t.Fatal("empty root listing")
	}
	for _, name := range names {
		if !want[name] {
			t.Errorf("unexpected child %q", name)
		}
	}
}

func TestClusterCreateLocalLayer(t *testing.T) {
	mon, _, tree := startCluster(t, 3, 600)
	c := connect(t, mon)
	// Find a local-layer directory to create under: any deep dir.
	var deepDir string
	for _, n := range tree.Nodes() {
		if n.IsDir() && n.Depth() >= 3 {
			deepDir = tree.Path(n)
			break
		}
	}
	if deepDir == "" {
		t.Skip("no deep directory in workload")
	}
	p := deepDir + "/newfile.bin"
	e, err := c.Create(p, wire.EntryFile)
	if err != nil {
		t.Fatal(err)
	}
	if e.Path != p || e.Version != 1 {
		t.Fatalf("created entry = %+v", e)
	}
	// When the chosen directory happens to sit in the global layer, the
	// create commits at the Monitor and reaches replicas via heartbeats, so
	// poll rather than assert immediately.
	eventually(t, 2*time.Second, func() error {
		got, err := c.Lookup(p)
		if err != nil {
			return err
		}
		if got.Path != p {
			return fmt.Errorf("lookup returned %+v", got)
		}
		return nil
	})
	if _, err := c.Create(p, wire.EntryFile); err == nil {
		t.Error("duplicate create succeeded")
	}
}

func TestClusterCreateGlobalLayerPropagates(t *testing.T) {
	mon, servers, _ := startCluster(t, 3, 600)
	c := connect(t, mon)
	before := mon.GLVersion()
	p := "/gl-new-dir"
	if _, err := c.Create(p, wire.EntryDir); err != nil {
		t.Fatal(err)
	}
	if mon.GLVersion() <= before {
		t.Error("GL version did not advance")
	}
	// Every server must observe the new GL entry after heartbeats.
	eventually(t, 2*time.Second, func() error {
		for i, srv := range servers {
			cc, err := wire.Dial(srv.Addr(), time.Second)
			if err != nil {
				return err
			}
			var resp wire.LookupResponse
			err = cc.Call(wire.TypeLookup, &wire.LookupRequest{Path: p}, &resp)
			_ = cc.Close()
			if err != nil {
				return fmt.Errorf("server %d: %w", i, err)
			}
			if resp.Entry == nil || resp.Entry.Path != p {
				return fmt.Errorf("server %d missing %s", i, p)
			}
		}
		return nil
	})
}

func TestClusterSetAttrGLIsSerialised(t *testing.T) {
	mon, _, tree := startCluster(t, 3, 600)
	// Target the root (always GL).
	_ = tree
	const clients, updates = 4, 10
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: seed})
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = cl.Close() }()
			for j := 0; j < updates; j++ {
				if _, err := cl.SetAttr("/", int64(j), 0o755); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	c := connect(t, mon)
	eventually(t, 2*time.Second, func() error {
		e, err := c.Lookup("/")
		if err != nil {
			return err
		}
		// Initial version 1 + clients×updates serialised increments.
		if want := int64(1 + clients*updates); e.Version != want {
			return fmt.Errorf("version = %d, want %d (lost updates?)", e.Version, want)
		}
		return nil
	})
}

func TestClusterSetAttrLocalLayer(t *testing.T) {
	mon, _, tree := startCluster(t, 3, 600)
	c := connect(t, mon)
	var leaf string
	for _, n := range tree.Nodes() {
		if !n.IsDir() && n.Depth() >= 3 {
			leaf = tree.Path(n)
			break
		}
	}
	if leaf == "" {
		t.Skip("no deep file")
	}
	e, err := c.SetAttr(leaf, 4096, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != 4096 || e.Version != 2 {
		t.Errorf("entry = %+v", e)
	}
}

func TestClusterStats(t *testing.T) {
	mon, servers, _ := startCluster(t, 2, 300)
	c := connect(t, mon)
	if _, err := c.Lookup("/"); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, srv := range servers {
		st, err := c.Stats(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		total += st.Ops
		if st.Entries == 0 {
			t.Errorf("server %s has no entries", st.Server)
		}
	}
	if total == 0 {
		t.Error("no ops recorded across cluster")
	}
}

func TestClusterServerFailureRecovery(t *testing.T) {
	mon, servers, tree := startCluster(t, 3, 800)
	c := connect(t, mon)

	// Find a local-layer path owned by the server we're about to kill.
	victim := servers[1]
	var lostPath string
	for _, n := range tree.Nodes() {
		if n.Depth() < 3 || n.IsDir() {
			continue
		}
		p := tree.Path(n)
		e, err := c.Lookup(p)
		if err != nil || e == nil {
			continue
		}
		st, err := c.Stats(victim.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = st
		lostPath = p
		break
	}
	if lostPath == "" {
		t.Skip("no suitable path")
	}

	_ = victim.Close()

	// After the heartbeat timeout, the monitor reassigns the dead server's
	// subtrees to the survivors and lookups keep working.
	eventually(t, 5*time.Second, func() error {
		if err := c.Refresh(); err != nil {
			return err
		}
		for _, n := range tree.Nodes()[:100] {
			p := tree.Path(n)
			if _, err := c.Lookup(p); err != nil {
				return fmt.Errorf("lookup %s: %w", p, err)
			}
		}
		return nil
	})

	alive := 0
	for _, mem := range mon.Stats().Members {
		if mem.Alive {
			alive++
		}
	}
	if alive != 2 {
		t.Errorf("alive members = %d, want 2", alive)
	}
}

func TestClusterRejectsExtraServer(t *testing.T) {
	mon, _, _ := startCluster(t, 2, 300)
	extra := server.New(server.Config{
		Addr:        "127.0.0.1:0",
		MonitorAddr: mon.Addr(),
	})
	err := extra.Start()
	if err == nil {
		_ = extra.Close()
		t.Fatal("extra server joined a full cluster")
	}
	if !strings.Contains(err.Error(), "cluster already has all expected servers") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestClusterReplacementServerJoins(t *testing.T) {
	mon, servers, _ := startCluster(t, 2, 300)
	_ = servers[0].Close()
	// Wait for the monitor to notice the death.
	eventually(t, 3*time.Second, func() error {
		for _, mem := range mon.Stats().Members {
			if !mem.Alive {
				return nil
			}
		}
		return errors.New("no dead member yet")
	})
	replacement := server.New(server.Config{
		Addr:              "127.0.0.1:0",
		MonitorAddr:       mon.Addr(),
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err := replacement.Start(); err != nil {
		t.Fatalf("replacement join: %v", err)
	}
	t.Cleanup(func() { _ = replacement.Close() })
	if replacement.ID() != 0 {
		t.Errorf("replacement got ID %d, want reused slot 0", replacement.ID())
	}
}

func TestClusterReaddirSpansCutLine(t *testing.T) {
	mon, _, tree := startCluster(t, 3, 800)
	c := connect(t, mon)
	// The root's children span the GL/LL boundary; the listing must still
	// be complete.
	names, err := c.Readdir("/")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, child := range tree.Root().Children() {
		if !got[child.Name()] {
			t.Errorf("root listing missing %q", child.Name())
		}
	}
}

func TestClusterGlobalLayerReevaluation(t *testing.T) {
	mon, servers, tree := startCluster(t, 3, 800)
	c := connect(t, mon)

	// Hammer one deep path so its ancestors become the hottest nodes; the
	// access counters flow to the monitor through heartbeats.
	var deep string
	for _, n := range tree.Nodes() {
		if !n.IsDir() && n.Depth() >= 4 {
			deep = tree.Path(n)
			break
		}
	}
	if deep == "" {
		t.Skip("no deep file")
	}
	for i := 0; i < 300; i++ {
		if _, err := c.Lookup(deep); err != nil {
			t.Fatal(err)
		}
	}
	// Give heartbeats a moment to deliver the counters, then re-evaluate.
	time.Sleep(200 * time.Millisecond)
	if err := mon.ReevaluateGlobalLayer(); err != nil {
		t.Fatal(err)
	}

	// The cluster must remain fully functional afterwards: every sampled
	// path resolves, and the new GL version propagates to all servers.
	eventually(t, 5*time.Second, func() error {
		if err := c.Refresh(); err != nil {
			return err
		}
		for i, n := range tree.Nodes() {
			if i >= 150 {
				break
			}
			if _, err := c.Lookup(tree.Path(n)); err != nil {
				return fmt.Errorf("lookup %s: %w", tree.Path(n), err)
			}
		}
		for _, srv := range servers {
			st, err := c.Stats(srv.Addr())
			if err != nil {
				return err
			}
			if st.GLVersion < 2 {
				return fmt.Errorf("server %s GL version %d not refreshed", st.Server, st.GLVersion)
			}
		}
		return nil
	})
}

func TestClusterChaosRestartUnderLoad(t *testing.T) {
	mon, servers, tree := startCluster(t, 3, 800)

	// Background load from 4 clients while one server dies and a
	// replacement joins. Errors during the disruption window are expected;
	// the cluster must converge to serving everything again.
	stopLoad := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		cl, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 99})
		if err != nil {
			return
		}
		defer func() { _ = cl.Close() }()
		nodes := tree.Nodes()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			_, _ = cl.Lookup(tree.Path(nodes[i%len(nodes)]))
		}
	}()

	time.Sleep(100 * time.Millisecond)
	_ = servers[2].Close()

	// Wait for the monitor to mark it dead, then start a replacement.
	eventually(t, 5*time.Second, func() error {
		for _, mem := range mon.Stats().Members {
			if !mem.Alive {
				return nil
			}
		}
		return errors.New("victim still alive")
	})
	replacement := server.New(server.Config{
		Addr:              "127.0.0.1:0",
		MonitorAddr:       mon.Addr(),
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err := replacement.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = replacement.Close() })

	close(stopLoad)
	<-loadDone

	// Convergence: a fresh client resolves every path.
	c := connect(t, mon)
	eventually(t, 5*time.Second, func() error {
		if err := c.Refresh(); err != nil {
			return err
		}
		for i, n := range tree.Nodes() {
			if i >= 200 {
				break
			}
			if _, err := c.Lookup(tree.Path(n)); err != nil {
				return fmt.Errorf("lookup %s: %w", tree.Path(n), err)
			}
		}
		return nil
	})
}

func TestClusterRenameLocalLayer(t *testing.T) {
	mon, _, tree := startCluster(t, 3, 800)
	c := connect(t, mon)
	// Pick a local-layer directory with children that is NOT a subtree root
	// (depth ≥ 4 keeps us safely below the cut-line and its roots).
	var dir *namespace.Node
	for _, n := range tree.Nodes() {
		if n.IsDir() && n.Depth() >= 4 && n.NumChildren() > 0 {
			dir = n
			break
		}
	}
	if dir == nil {
		t.Skip("no deep directory with children")
	}
	oldPath := tree.Path(dir)
	childName := dir.Children()[0].Name()

	e, err := c.Rename(oldPath, "renamed-dir")
	if err != nil {
		// A deep directory can still be a subtree root; those renames are
		// maintenance operations by design.
		if strings.Contains(err.Error(), "subtree root") {
			t.Skip("picked a subtree root")
		}
		t.Fatal(err)
	}
	slash := strings.LastIndexByte(oldPath, '/')
	newPath := oldPath[:slash+1] + "renamed-dir"
	if e.Path != newPath {
		t.Fatalf("renamed entry = %+v, want path %s", e, newPath)
	}
	// Old path is gone; new path and its children resolve.
	if _, err := c.Lookup(oldPath); err == nil {
		t.Error("old path still resolves")
	}
	got, err := c.Lookup(newPath + "/" + childName)
	if err != nil {
		t.Fatalf("child lookup after rename: %v", err)
	}
	if got.Path != newPath+"/"+childName {
		t.Errorf("child = %+v", got)
	}
}

func TestClusterRenameGlobalLayerRejected(t *testing.T) {
	mon, _, tree := startCluster(t, 2, 400)
	c := connect(t, mon)
	// A top-level directory is (almost certainly) in the GL or a subtree
	// root — either way rename must be refused as a maintenance op.
	top := tree.Root().Children()[0]
	_, err := c.Rename(tree.Path(top), "nope")
	if err == nil {
		t.Fatal("partition-affecting rename accepted")
	}
	if !strings.Contains(err.Error(), "re-evaluation") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestClusterRevalidate exercises the lease-coherence probe end to end
// against the owning MDS: a version match renews without shipping the body,
// a mismatch ships the current entry, a foreign local-layer path redirects
// instead of false-confirming, an unknown path errors, and the server-side
// lease/revalidate counters account for all of it.
func TestClusterRevalidate(t *testing.T) {
	_, servers, tree := startCluster(t, 3, 800)
	p, owner := findLocalPath(t, tree, servers)
	conn := directConn(t, owner)

	var lr wire.LookupResponse
	if err := conn.Call(wire.TypeLookup, &wire.LookupRequest{Path: p}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Entry == nil {
		t.Fatalf("no entry for %s on its owner", p)
	}
	if lr.LeaseMS <= 0 || lr.IndexVer <= 0 {
		t.Errorf("lookup granted leaseMs=%d indexVer=%d, want both > 0", lr.LeaseMS, lr.IndexVer)
	}

	var match wire.RevalidateResponse
	if err := conn.Call(wire.TypeRevalidate,
		&wire.RevalidateRequest{Path: p, Version: lr.Entry.Version}, &match); err != nil {
		t.Fatal(err)
	}
	if !match.Match || match.Entry != nil {
		t.Errorf("current-version probe = %+v, want a body-less match", match)
	}
	if match.LeaseMS <= 0 {
		t.Errorf("matching probe renewed no lease: leaseMs=%d", match.LeaseMS)
	}

	var stale wire.RevalidateResponse
	if err := conn.Call(wire.TypeRevalidate,
		&wire.RevalidateRequest{Path: p, Version: lr.Entry.Version + 7}, &stale); err != nil {
		t.Fatal(err)
	}
	if stale.Match || stale.Entry == nil || stale.Entry.Version != lr.Entry.Version {
		t.Errorf("stale-version probe = %+v, want the current entry resent", stale)
	}

	for _, srv := range servers {
		if srv.Addr() == owner {
			continue
		}
		var foreign wire.RevalidateResponse
		err := directConn(t, srv.Addr()).Call(wire.TypeRevalidate,
			&wire.RevalidateRequest{Path: p, Version: lr.Entry.Version}, &foreign)
		if err != nil {
			t.Fatalf("foreign revalidate: %v", err)
		}
		if foreign.Redirect == "" || foreign.Match {
			t.Errorf("non-owner answered the probe itself: %+v", foreign)
		}
		break
	}

	var gone wire.RevalidateResponse
	if err := conn.Call(wire.TypeRevalidate,
		&wire.RevalidateRequest{Path: "/no/such/path", Version: 1}, &gone); err == nil {
		t.Error("revalidate of a nonexistent path succeeded")
	}

	var st wire.StatsResponse
	if err := conn.Call(wire.TypeStats, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.LeasesGranted < 2 || st.RevalidateHits < 1 || st.RevalidateMisses < 1 {
		t.Errorf("counters leases=%d hits=%d misses=%d, want >=2/>=1/>=1",
			st.LeasesGranted, st.RevalidateHits, st.RevalidateMisses)
	}
}

// directConn opens a deadline-armed connection straight to one MDS.
func directConn(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	conn, err := wire.DialCall(addr, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// findLocalPath returns a deep local-layer file path together with the
// address of the one server that holds it (GL paths resolve everywhere and
// are skipped).
func findLocalPath(t *testing.T, tree *namespace.Tree, servers []*server.Server) (string, string) {
	t.Helper()
	conns := make([]*wire.Conn, len(servers))
	for i, srv := range servers {
		conns[i] = directConn(t, srv.Addr())
	}
	for _, n := range tree.Nodes() {
		if n.IsDir() || n.Depth() < 3 {
			continue
		}
		p := tree.Path(n)
		owner := ""
		holders := 0
		for i, conn := range conns {
			var resp wire.LookupResponse
			if err := conn.Call(wire.TypeLookup, &wire.LookupRequest{Path: p}, &resp); err != nil {
				continue
			}
			if resp.Entry != nil {
				holders++
				owner = servers[i].Addr()
			}
		}
		if holders == 1 {
			return p, owner
		}
	}
	t.Skip("no single-owner local-layer path found")
	return "", ""
}

// TestClusterMonitorRestartRecovery kills the Monitor for well over two
// heartbeat intervals and restarts it on the same address, asserting that
// (a) servers keep serving during the outage, (b) heartbeats resume —
// no goroutine is wedged on the dead Monitor — and (c) the hot-path
// counters accumulated during the outage are delivered after recovery
// rather than silently dropped.
func TestClusterMonitorRestartRecovery(t *testing.T) {
	w, err := trace.BuildWorkload(trace.LMBE().Scale(600), 2400, 42)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(w.Tree, monitor.Config{
		Addr:             "127.0.0.1:0",
		Servers:          3,
		HeartbeatTimeout: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	monAddr := mon.Addr()

	servers := make([]*server.Server, 0, 3)
	for i := 0; i < 3; i++ {
		srv := server.New(server.Config{
			Addr:              "127.0.0.1:0",
			MonitorAddr:       monAddr,
			HeartbeatInterval: 50 * time.Millisecond,
			DialTimeout:       500 * time.Millisecond,
			CallTimeout:       500 * time.Millisecond,
		})
		if err := srv.Start(); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		servers = append(servers, srv)
	}
	c := connect(t, mon)
	hotPath, ownerAddr := findLocalPath(t, w.Tree, servers)
	if _, err := c.Lookup(hotPath); err != nil {
		t.Fatal(err)
	}
	hotNode, err := w.Tree.Lookup(hotPath)
	if err != nil {
		t.Fatal(err)
	}

	// Monitor goes down. After Close returns nothing touches the tree, so
	// the popularity baseline read is race-free.
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	popBefore := hotNode.SelfPopularity()

	// (a) Servers keep serving local-layer reads throughout the outage.
	const outageLookups = 50
	ownerConn := directConn(t, ownerAddr)
	for i := 0; i < outageLookups; i++ {
		var resp wire.LookupResponse
		if err := ownerConn.Call(wire.TypeLookup, &wire.LookupRequest{Path: hotPath}, &resp); err != nil {
			t.Fatalf("lookup %d during outage: %v", i, err)
		}
		if resp.Entry == nil {
			t.Fatalf("lookup %d during outage returned no entry", i)
		}
	}
	// Hold the outage well past two heartbeat intervals.
	time.Sleep(300 * time.Millisecond)

	// Restart the Monitor on the same address over the same namespace.
	var mon2 *monitor.Monitor
	eventually(t, 3*time.Second, func() error {
		m2, err := monitor.New(w.Tree, monitor.Config{
			Addr:             monAddr,
			Servers:          3,
			HeartbeatTimeout: 600 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		if err := m2.Start(); err != nil {
			return err
		}
		mon2 = m2
		return nil
	})
	t.Cleanup(func() { _ = mon2.Close() })

	// (b) Every server re-joins and heartbeats flow again.
	eventually(t, 5*time.Second, func() error {
		st := mon2.Stats()
		alive := 0
		for _, mem := range st.Members {
			if mem.Alive {
				alive++
			}
		}
		if alive != 3 {
			return fmt.Errorf("alive members = %d, want 3", alive)
		}
		if st.Heartbeats < 30 {
			return fmt.Errorf("heartbeats = %d, want >= 30", st.Heartbeats)
		}
		return nil
	})

	// The client survives the restart too (its Monitor channel redials).
	eventually(t, 3*time.Second, func() error {
		if err := c.Refresh(); err != nil {
			return err
		}
		_, err := c.Lookup(hotPath)
		return err
	})

	// Server-side evidence: misses were counted during the outage, the
	// channel redialled, and RTT samples resumed.
	var st wire.StatsResponse
	if err := ownerConn.Call(wire.TypeStats, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.HeartbeatMisses == 0 {
		t.Error("no heartbeat misses recorded across a monitor outage")
	}
	if st.MonRPC.Redials == 0 {
		t.Error("monitor channel never redialled")
	}
	if st.HeartbeatRTT.Count == 0 {
		t.Error("no heartbeat RTT samples recorded")
	}

	// (c) The outage window's access counters were merged back and shipped
	// after recovery: the authoritative popularity must include them.
	if err := mon2.Close(); err != nil {
		t.Fatal(err)
	}
	popAfter := hotNode.SelfPopularity()
	if popAfter < popBefore+outageLookups {
		t.Errorf("hot-path popularity = %d, want >= %d: outage-window counters lost",
			popAfter, popBefore+outageLookups)
	}
}

// fakeMDS joins the cluster as a member whose listener accepts and
// immediately closes connections: alive by heartbeat, unreachable for
// subtree installs — the shape that wedges transfers without a NACK.
type fakeMDS struct {
	addr string
	stop chan struct{}
	done chan struct{}
}

func startFakeMDS(t *testing.T, monAddr string) *fakeMDS {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			_ = nc.Close()
		}
	}()
	conn, err := wire.DialCall(monAddr, time.Second, time.Second)
	if err != nil {
		_ = ln.Close()
		t.Fatal(err)
	}
	var join wire.JoinResponse
	if err := conn.Call(wire.TypeJoin, &wire.JoinRequest{Addr: ln.Addr().String()}, &join); err != nil {
		_ = conn.Close()
		_ = ln.Close()
		t.Fatalf("fake join: %v", err)
	}
	f := &fakeMDS{addr: ln.Addr().String(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer func() { _ = conn.Close() }()
		defer func() { _ = ln.Close() }()
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-ticker.C:
				var resp wire.HeartbeatResponse
				_ = conn.Call(wire.TypeHeartbeat, &wire.HeartbeatRequest{
					ServerID: join.ServerID, Addr: f.addr,
					GLVersion: join.GLVersion, IndexVer: join.IndexVer,
				}, &resp)
			}
		}
	}()
	t.Cleanup(func() {
		close(f.stop)
		<-f.done
	})
	return f
}

// TestClusterTransferNackReschedules drives one server into overload while
// the lightest member is unreachable for installs: the failed transfer must
// be NACKed back to the Monitor and the subtree re-scheduled to the other
// (reachable) light server instead of staying wedged in-flight.
func TestClusterTransferNackReschedules(t *testing.T) {
	w, err := trace.BuildWorkload(trace.LMBE().Scale(800), 3200, 42)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(w.Tree, monitor.Config{
		Addr:             "127.0.0.1:0",
		Servers:          3,
		HeartbeatTimeout: 2 * time.Second,
		AdjustInterval:   150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Close() })

	real := make([]*server.Server, 0, 2)
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{
			Addr:              "127.0.0.1:0",
			MonitorAddr:       mon.Addr(),
			HeartbeatInterval: 50 * time.Millisecond,
			DialTimeout:       500 * time.Millisecond,
			CallTimeout:       500 * time.Millisecond,
		})
		if err := srv.Start(); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		real = append(real, srv)
	}
	fake := startFakeMDS(t, mon.Addr())

	hotPath, ownerAddr := findLocalPath(t, w.Tree, real)
	lightAddr := real[0].Addr()
	if ownerAddr == lightAddr {
		lightAddr = real[1].Addr()
	}

	// Roots the overloaded server owns before rebalancing.
	monConn := directConn(t, mon.Addr())
	var before wire.ClusterInfoResponse
	if err := monConn.Call(wire.TypeClusterInfo, nil, &before); err != nil {
		t.Fatal(err)
	}
	srcRoots := make(map[string]bool)
	for root, addr := range before.Index {
		if addr == ownerAddr {
			srcRoots[root] = true
		}
	}
	if len(srcRoots) == 0 {
		t.Skip("overloaded server owns no subtrees")
	}

	// Hammer the owner hard and the light real server gently, so the fake
	// member (load 0) is the planner's first destination choice.
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	hammer := func(addr, path string, pause time.Duration) {
		defer loadWG.Done()
		conn, err := wire.DialCall(addr, time.Second, time.Second)
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		for {
			select {
			case <-stopLoad:
				return
			default:
			}
			var resp wire.LookupResponse
			_ = conn.Call(wire.TypeLookup, &wire.LookupRequest{Path: path}, &resp)
			if pause > 0 {
				time.Sleep(pause)
			}
		}
	}
	loadWG.Add(2)
	go hammer(ownerAddr, hotPath, 0)
	go hammer(lightAddr, "/", 5*time.Millisecond)
	t.Cleanup(func() {
		close(stopLoad)
		loadWG.Wait()
	})

	// The unreachable destination must be NACKed and the subtree placed on
	// the reachable light server.
	eventually(t, 15*time.Second, func() error {
		st := mon.Stats()
		if st.TransfersFailed == 0 {
			return fmt.Errorf("no transfer NACKed yet (planned=%d done=%d)",
				st.TransfersPlanned, st.TransfersDone)
		}
		if st.TransfersDone == 0 {
			return fmt.Errorf("no transfer committed yet (failed=%d)", st.TransfersFailed)
		}
		var info wire.ClusterInfoResponse
		if err := monConn.Call(wire.TypeClusterInfo, nil, &info); err != nil {
			return err
		}
		for root := range srcRoots {
			if info.Index[root] == lightAddr {
				return nil
			}
		}
		return fmt.Errorf("no subtree moved from %s to %s yet", ownerAddr, lightAddr)
	})
	_ = fake
}

// TestClusterPartialJoinHeartbeat heartbeats a cluster whose planned slots
// are only partially joined: subtree owners that never joined must be
// skipped by failure checking and planning, not indexed out of range.
func TestClusterPartialJoinHeartbeat(t *testing.T) {
	w, err := trace.BuildWorkload(trace.LMBE().Scale(400), 1600, 42)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(w.Tree, monitor.Config{
		Addr:             "127.0.0.1:0",
		Servers:          3,
		HeartbeatTimeout: 300 * time.Millisecond,
		AdjustInterval:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Close() })

	// One of three planned slots joins; its heartbeats drive both the
	// failure checker and the planner over owners 1 and 2, which have no
	// member entry yet.
	srv := server.New(server.Config{
		Addr:              "127.0.0.1:0",
		MonitorAddr:       mon.Addr(),
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	eventually(t, 5*time.Second, func() error {
		st := mon.Stats()
		if st.Heartbeats < 10 {
			return fmt.Errorf("heartbeats = %d, want >= 10", st.Heartbeats)
		}
		return nil
	})
}

// TestClusterConcurrentClients hammers a live cluster from many goroutines
// sharing ONE client — so every operation pipelines over the same pooled
// multiplexed connections and lands in the MDSs' per-connection worker
// pools — and asserts no response ever crosses between callers. Run under
// -race this covers the whole concurrent serving path end to end: demux
// reader, worker-pool dispatch, RWMutex store, sharded path counters.
func TestClusterConcurrentClients(t *testing.T) {
	mon, _, tree := startCluster(t, 3, 600)
	shared := connect(t, mon)

	var paths []string
	for _, n := range tree.Nodes() {
		if len(paths) >= 120 {
			break
		}
		paths = append(paths, tree.Path(n))
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, p := range paths {
				e, err := shared.Lookup(p)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d Lookup(%q): %w", g, p, err)
					return
				}
				if e == nil || e.Path != p {
					errs <- fmt.Errorf("goroutine %d Lookup(%q) got %+v: response crossed callers", g, p, e)
					return
				}
				// Sprinkle in mutations so read-lock holders and writers
				// genuinely interleave on every server.
				if i%10 == g%10 {
					np := fmt.Sprintf("%s/conc-g%d-%d", strings.TrimSuffix(p, "/"), g, i)
					if e.Kind == wire.EntryDir {
						ce, err := shared.Create(np, wire.EntryFile)
						if err != nil {
							errs <- fmt.Errorf("goroutine %d Create(%q): %w", g, np, err)
							return
						}
						if ce == nil || ce.Path != np {
							errs <- fmt.Errorf("goroutine %d Create(%q) got %+v", g, np, ce)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
