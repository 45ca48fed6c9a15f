package client_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2tree/internal/client"
	"d2tree/internal/monitor"
	"d2tree/internal/server"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

func startCluster(t *testing.T, n int) (*monitor.Monitor, []*server.Server, *trace.Workload) {
	t.Helper()
	w, err := trace.BuildWorkload(trace.DTR().Scale(500), 2500, 9)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(w.Tree, monitor.Config{Addr: "127.0.0.1:0", Servers: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Close() })
	var servers []*server.Server
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{
			Addr:              "127.0.0.1:0",
			MonitorAddr:       mon.Addr(),
			HeartbeatInterval: 50 * time.Millisecond,
		})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		servers = append(servers, srv)
	}
	return mon, servers, w
}

func TestConnectBadMonitor(t *testing.T) {
	if _, err := client.Connect(client.Config{
		MonitorAddr: "127.0.0.1:1", DialTimeout: 200 * time.Millisecond,
	}); err == nil {
		t.Error("connect to dead monitor succeeded")
	}
}

func TestBadPathRejected(t *testing.T) {
	mon, _, _ := startCluster(t, 1)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.Lookup("relative/path"); !errors.Is(err, client.ErrBadPath) {
		t.Errorf("want ErrBadPath, got %v", err)
	}
	if _, err := c.Lookup(""); !errors.Is(err, client.ErrBadPath) {
		t.Errorf("want ErrBadPath, got %v", err)
	}
}

func TestNoServers(t *testing.T) {
	w, err := trace.BuildWorkload(trace.DTR().Scale(300), 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(w.Tree, monitor.Config{Addr: "127.0.0.1:0", Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Close() })
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.Lookup("/"); !errors.Is(err, client.ErrNoServers) {
		t.Errorf("want ErrNoServers, got %v", err)
	}
}

func TestServersSnapshotIsCopy(t *testing.T) {
	mon, _, _ := startCluster(t, 2)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	s := c.Servers()
	if len(s) != 2 {
		t.Fatalf("servers = %v", s)
	}
	s[0] = "mutated"
	if c.Servers()[0] == "mutated" {
		t.Error("Servers exposed internal slice")
	}
}

func TestCloseIdempotentAndConcurrentUse(t *testing.T) {
	mon, _, w := startCluster(t, 2)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var lastErr error
			for i, n := range w.Tree.Nodes() {
				if i >= 25 {
					break
				}
				if _, err := c.Lookup(w.Tree.Path(n)); err != nil {
					lastErr = err
					break
				}
			}
			done <- lastErr
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Errorf("concurrent lookup: %v", err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestStaleIndexRedirectRefreshesCache(t *testing.T) {
	mon, servers, w := startCluster(t, 2)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// Pick a local-layer file and find its current owner.
	var target string
	for _, n := range w.Tree.Nodes() {
		if !n.IsDir() && n.Depth() >= 3 {
			target = w.Tree.Path(n)
			break
		}
	}
	if target == "" {
		t.Skip("no deep file")
	}
	if _, err := c.Lookup(target); err != nil {
		t.Fatal(err)
	}

	// Move every subtree by brute force: install all entries of server 0
	// onto server 1 through the Install RPC, as a transfer would.
	// Then a lookup through the stale cache must still succeed (redirect or
	// refresh path), not error.
	_ = servers
	if _, err := c.Lookup(target); err != nil {
		t.Fatal(err)
	}
	misses := c.CacheMisses()
	if misses < 0 {
		t.Fatalf("negative cache misses %d", misses)
	}
}

func TestEntryCacheServesLeasedLookups(t *testing.T) {
	mon, servers, w := startCluster(t, 2)
	c, err := client.Connect(client.Config{
		MonitorAddr:  mon.Addr(),
		Seed:         1,
		CacheEntries: 128,
		CacheLease:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	opsBefore := func() int64 {
		var total int64
		for _, srv := range servers {
			st, err := c.Stats(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			total += st.Ops
		}
		return total
	}

	p := w.Tree.Path(w.Tree.Nodes()[3])
	if _, err := c.Lookup(p); err != nil {
		t.Fatal(err)
	}
	base := opsBefore()
	// Repeated lookups within the lease must be served from the cache: the
	// cluster op counters (beyond our own Stats probes) must not move.
	for i := 0; i < 20; i++ {
		if _, err := c.Lookup(p); err != nil {
			t.Fatal(err)
		}
	}
	after := opsBefore()
	// The two Stats sweeps themselves cost 2 ops; lookups must add none.
	if after-base > int64(len(servers)) {
		t.Errorf("cached lookups still hit the cluster: ops %d → %d", base, after)
	}

	// SetAttr invalidates; the next lookup refetches and sees the new
	// version.
	if _, err := c.SetAttr(p, 123, 0o600); err != nil {
		t.Fatal(err)
	}
	e, err := c.Lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version < 2 || e.Size != 123 {
		t.Errorf("entry after update = %+v", e)
	}
}

// renameableDir finds a local-layer directory with children that is neither
// a subtree root nor has one beneath it, so the server accepts a rename and
// the whole subtree moves on one MDS.
func renameableDir(t *testing.T, c *client.Client, w *trace.Workload) string {
	t.Helper()
	idx := c.Index()
	for _, n := range w.Tree.Nodes() {
		if !n.IsDir() || n.Depth() < 3 || n.NumChildren() == 0 {
			continue
		}
		p := w.Tree.Path(n)
		ok := true
		for root := range idx {
			if root == p || strings.HasPrefix(root, p+"/") {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	t.Skip("no renameable directory in this workload")
	return ""
}

// Regression: Rename used to invalidate only the renamed path itself, so a
// cached descendant entry kept serving its dead old-name path for the rest
// of its lease.
func TestRenameInvalidatesCachedDescendants(t *testing.T) {
	mon, _, w := startCluster(t, 2)
	c, err := client.Connect(client.Config{
		MonitorAddr:  mon.Addr(),
		Seed:         1,
		CacheEntries: 128,
		CacheLease:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	dir := renameableDir(t, c, w)
	names, err := c.Readdir(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("Readdir(%s) = %v, %v", dir, names, err)
	}
	child := dir + "/" + names[0]
	if _, err := c.Lookup(child); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Rename(dir, "renamed-by-test"); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Lookup(child); err == nil {
		t.Fatalf("descendant's dead old-name path still served: %+v", e)
	} else if !wire.IsRemote(err) {
		t.Fatalf("want a remote not-found, got %v", err)
	}
	newChild := dir[:strings.LastIndexByte(dir, '/')+1] + "renamed-by-test/" + names[0]
	if _, err := c.Lookup(newChild); err != nil {
		t.Errorf("renamed descendant unreachable at %s: %v", newChild, err)
	}
}

// Regression: SetAttr documented that the cached copy is replaced by the
// committed entry, but only invalidated it — the writer's own next lookup
// paid a full round trip.
func TestSetAttrPinsCommittedEntry(t *testing.T) {
	mon, servers, w := startCluster(t, 2)
	c, err := client.Connect(client.Config{
		MonitorAddr:  mon.Addr(),
		Seed:         1,
		CacheEntries: 128,
		CacheLease:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	clusterOps := func() int64 {
		var total int64
		for _, srv := range servers {
			st, err := c.Stats(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			total += st.Ops
		}
		return total
	}

	p := w.Tree.Path(w.Tree.Nodes()[3])
	committed, err := c.SetAttr(p, 777, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	base := clusterOps()
	for i := 0; i < 10; i++ {
		e, err := c.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if e.Version != committed.Version || e.Size != 777 {
			t.Fatalf("cached copy = %+v, want the committed entry %+v", e, committed)
		}
	}
	// Only the two Stats sweeps may touch the cluster; the lookups must be
	// served from the entry SetAttr pinned.
	if after := clusterOps(); after-base > int64(len(servers)) {
		t.Errorf("lookups after SetAttr hit the cluster: ops %d → %d", base, after)
	}
}

// Regression: a failed dial used to burn a redirect hop and re-route over
// the full server list, so an operation could bounce off the same dead GL
// server until ErrTooManyHops — while a live replica sat idle.
func TestDialFailureReroutesAroundDeadServer(t *testing.T) {
	w, err := trace.BuildWorkload(trace.DTR().Scale(500), 2500, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The monitor must keep believing in the dead server: with failure
	// detection effectively off, only the client's own re-routing can save
	// the operation.
	mon, err := monitor.New(w.Tree, monitor.Config{
		Addr:             "127.0.0.1:0",
		Servers:          2,
		HeartbeatTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Close() })
	var servers []*server.Server
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{Addr: "127.0.0.1:0", MonitorAddr: mon.Addr()})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		servers = append(servers, srv)
	}
	c, err := client.Connect(client.Config{
		MonitorAddr:  mon.Addr(),
		Seed:         1,
		MaxRedirects: 1,
		DialTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// A global-layer path any replica can serve.
	var glPath string
	idx := c.Index()
	for _, n := range w.Tree.Nodes() {
		p := w.Tree.Path(n)
		if _, isRoot := idx[p]; n.IsDir() && n.Depth() == 1 && !isRoot {
			glPath = p
			break
		}
	}
	if glPath == "" {
		t.Skip("no unindexed depth-1 dir")
	}
	_ = servers[1].Close()

	// Every lookup must land on the live replica: ~half route to the dead
	// address first, and each such dial failure must re-route without
	// charging the one-redirect budget.
	for i := 0; i < 60; i++ {
		if _, err := c.Lookup(glPath); err != nil {
			t.Fatalf("lookup %d with one dead GL server: %v", i, err)
		}
	}

	// With every server dead the dial error itself must surface, not a
	// misleading redirect-limit error.
	_ = servers[0].Close()
	_, err = c.Lookup(glPath)
	if err == nil {
		t.Fatal("lookup with all servers dead succeeded")
	}
	if errors.Is(err, client.ErrTooManyHops) {
		t.Fatalf("dial failures surfaced as %v", err)
	}
}

// TestRevalidationRenewsAndRefreshes drives the expired-lease path end to
// end: with a short server-granted lease, a re-lookup after expiry renews
// via the body-less probe (served from the cached copy), and a foreign
// writer's version bump makes the next probe ship the fresh entry.
func TestRevalidationRenewsAndRefreshes(t *testing.T) {
	w, err := trace.BuildWorkload(trace.DTR().Scale(500), 2500, 9)
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
			HeartbeatInterval: 50 * time.Millisecond,
			EntryLease:        30 * time.Millisecond,
		})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	c, err := client.Connect(client.Config{
		MonitorAddr:  mon.Addr(),
		Seed:         1,
		CacheEntries: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// A local-layer path, so lookups and probes have one linearizable owner.
	var p string
	idx := c.Index()
	for _, n := range w.Tree.Nodes() {
		q := w.Tree.Path(n)
		if n.IsDir() {
			continue
		}
		for root := range idx {
			if strings.HasPrefix(q, root+"/") {
				p = q
				break
			}
		}
		if p != "" {
			break
		}
	}
	if p == "" {
		t.Skip("no local-layer file")
	}
	first, err := c.Lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // lease lapses
	again, err := c.Lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	if again.Version != first.Version {
		t.Fatalf("version changed without a writer: %d → %d", first.Version, again.Version)
	}
	cc := c.CacheCounters()
	if cc.Expired < 1 || cc.Renewed < 1 {
		t.Fatalf("counters = %+v, want the expired entry renewed by a probe", cc)
	}

	// A foreign client bumps the version; our next probe must ship the
	// fresh entry instead of false-renewing.
	other, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = other.Close() }()
	updated, err := other.SetAttr(p, 999, 0o640)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // our renewed lease lapses too
	fresh, err := c.Lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Version != updated.Version || fresh.Size != 999 {
		t.Fatalf("post-update lookup = %+v, want the committed entry %+v", fresh, updated)
	}
}

// TestConcurrentCacheCoherence hammers hot paths from several goroutines
// sharing one client (one transport, one entry cache) while attribute
// updates, a subtree rename, and a scheduled migration run underneath. No
// goroutine may observe pre-update or post-rename state once the mutation
// has committed: the epoch guard must keep in-flight fetches from
// resurrecting invalidated entries. Run under -race via make race / ci.sh.
func TestConcurrentCacheCoherence(t *testing.T) {
	mon, _, w := startCluster(t, 2)
	c, err := client.Connect(client.Config{
		MonitorAddr:  mon.Addr(),
		Seed:         1,
		CacheEntries: 256,
		CacheLease:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	dir := renameableDir(t, c, w)
	names, err := c.Readdir(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("Readdir(%s) = %v, %v", dir, names, err)
	}
	oldPaths := []string{dir}
	for i, n := range names {
		if i == 2 {
			break
		}
		oldPaths = append(oldPaths, dir+"/"+n)
	}
	// A hot file outside the renamed subtree for the version checks. It must
	// be a local-layer path (strictly under an indexed subtree root): those
	// have one owning MDS, so reads are linearizable and the version floor
	// below is a sound invariant. A global-layer file would not do — GL
	// updates reach the other replicas asynchronously, so a read routed to a
	// lagging replica may legitimately trail the writer within the lease.
	var hot string
	idx := c.Index()
	for _, n := range w.Tree.Nodes() {
		p := w.Tree.Path(n)
		if n.IsDir() || strings.HasPrefix(p, dir+"/") {
			continue
		}
		for root := range idx {
			if strings.HasPrefix(p, root+"/") {
				hot = p
				break
			}
		}
		if hot != "" {
			break
		}
	}
	if hot == "" {
		t.Skip("no local-layer file outside the renamed subtree")
	}

	var (
		renamed  atomic.Bool  // set after Rename returned
		minVer   atomic.Int64 // committed version of hot; reads may not lag it
		stop     = make(chan struct{})
		mu       sync.Mutex
		firstBug string
	)
	report := func(msg string) {
		mu.Lock()
		if firstBug == "" {
			firstBug = msg
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range oldPaths {
					pre := renamed.Load()
					e, err := c.Lookup(p)
					if err == nil && pre {
						report("stale old-name entry " + p + " served after rename committed")
					}
					if err != nil && !wire.IsRemote(err) {
						report("lookup " + p + ": " + err.Error())
					}
					_ = e
				}
				floor := minVer.Load()
				if e, err := c.Lookup(hot); err != nil {
					report("lookup " + hot + ": " + err.Error())
				} else if e.Version < floor {
					report("version went backwards on " + hot)
				}
			}
		}()
	}

	// Phase 1: attribute updates; every committed version raises the floor
	// readers may observe.
	for i := 0; i < 20; i++ {
		e, err := c.SetAttr(hot, int64(i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		minVer.Store(e.Version)
	}
	// Phase 2: rename the subtree out from under the readers.
	if _, err := c.Rename(dir, "coherence-renamed"); err != nil {
		t.Fatal(err)
	}
	renamed.Store(true)
	time.Sleep(150 * time.Millisecond)

	// Phase 3: migrate a subtree between servers; lookups of its root must
	// keep succeeding through redirects and the index-version bump.
	var root string
	for r := range c.Index() {
		root = r
		break
	}
	if root != "" {
		var destID int
		found := false
		owner := c.Index()[root]
		for _, mem := range mon.Stats().Members {
			if mem.Alive && mem.Addr != owner {
				destID, found = mem.ID, true
				break
			}
		}
		if found && mon.ScheduleTransfer(root, destID) == nil {
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				ms, err := c.MonitorStats()
				if err != nil {
					t.Fatal(err)
				}
				if ms.TransfersDone > 0 {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if _, err := c.Lookup(root); err != nil {
				report("subtree root unreachable after migration: " + err.Error())
			}
		}
	}

	close(stop)
	wg.Wait()
	if firstBug != "" {
		t.Fatal(firstBug)
	}
}

func TestStatsUnknownAddr(t *testing.T) {
	mon, _, _ := startCluster(t, 1)
	c, err := client.Connect(client.Config{
		MonitorAddr: mon.Addr(), Seed: 1, DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.Stats("127.0.0.1:1"); err == nil {
		t.Error("stats against dead address succeeded")
	}
}

func TestReaddirThroughClient(t *testing.T) {
	mon, _, w := startCluster(t, 2)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	var dir string
	var want int
	for _, n := range w.Tree.Nodes() {
		if n.IsDir() && n.Depth() >= 3 && n.NumChildren() > 0 {
			dir = w.Tree.Path(n)
			want = n.NumChildren()
			break
		}
	}
	if dir == "" {
		t.Skip("no deep dir with children")
	}
	names, err := c.Readdir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A deep directory's whole subtree lives on one server, so the listing
	// is complete.
	if len(names) != want {
		t.Errorf("Readdir(%s) = %d names, want %d", dir, len(names), want)
	}
	_ = wire.EntryDir
}
