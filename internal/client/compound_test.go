package client_test

import (
	"strings"
	"testing"
	"time"

	"d2tree/internal/client"
	"d2tree/internal/wire"
)

// TestBatchMixedOps drives one frame through every sub-op kind against a live
// cluster and checks per-sub-op results, lease stamps, and cache population.
func TestBatchMixedOps(t *testing.T) {
	mon, _, w := startCluster(t, 2)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1, CacheEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var existing string
	for _, n := range w.Tree.Nodes() {
		if !n.IsDir() && n.Depth() >= 3 {
			existing = w.Tree.Path(n)
			break
		}
	}
	if existing == "" {
		t.Skip("no deep file in workload")
	}
	parent := existing[:strings.LastIndexByte(existing, '/')]

	pre, err := c.Lookup(existing)
	if err != nil {
		t.Fatal(err)
	}

	ops := []wire.BatchOp{
		{Op: wire.BatchLookup, Path: existing},
		{Op: wire.BatchCreate, Path: parent + "/batch-new", Kind: wire.EntryFile},
		{Op: wire.BatchCreateAttrs, Path: parent + "/batch-attrs", Kind: wire.EntryFile, Size: 77, Mode: 0o600},
		{Op: wire.BatchSetAttr, Path: existing, Size: 123, Mode: 0o644},
		{Op: wire.BatchRevalidate, Path: existing, Version: pre.Version + 1},
		{Op: wire.BatchLookup, Path: "/no/such/path-batch"},
		{Op: "bogus", Path: existing},
	}
	results, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(results), len(ops))
	}
	if results[0].Entry == nil || results[0].Err != "" {
		t.Fatalf("lookup sub-op: %+v", results[0])
	}
	if results[0].LeaseMS <= 0 || results[0].IndexVer <= 0 {
		t.Errorf("lookup sub-result missing lease stamp: %+v", results[0])
	}
	if results[1].Entry == nil || results[1].Entry.Version != 1 {
		t.Fatalf("create sub-op: %+v", results[1])
	}
	e := results[2].Entry
	if e == nil || e.Size != 77 || e.Mode != 0o600 || e.Version != 1 {
		t.Fatalf("create_attrs sub-op: %+v", results[2])
	}
	if results[3].Entry == nil || results[3].Entry.Size != 123 || results[3].Entry.Version != pre.Version+1 {
		t.Fatalf("setattr sub-op: %+v", results[3])
	}
	// The setattr ran earlier in the same frame, so revalidating at the
	// post-setattr version must match bodilessly.
	if !results[4].Match || results[4].Entry != nil {
		t.Fatalf("revalidate sub-op: %+v", results[4])
	}
	if results[5].Err == "" {
		t.Fatalf("missing-path sub-op settled without error: %+v", results[5])
	}
	if results[6].Err == "" {
		t.Fatalf("unknown sub-op settled without error: %+v", results[6])
	}

	// Committed and fetched entries must now serve from cache within their
	// leases, without another wire op.
	before := c.CacheCounters().Hits
	if got, err := c.Lookup(parent + "/batch-attrs"); err != nil || got.Size != 77 {
		t.Fatalf("lookup after batch create_attrs: %+v, %v", got, err)
	}
	if got, err := c.Lookup(existing); err != nil || got.Size != 123 {
		t.Fatalf("lookup after batch setattr: %+v, %v", got, err)
	}
	if hits := c.CacheCounters().Hits; hits != before+2 {
		t.Errorf("batch results did not populate the cache: hits %d -> %d", before, hits)
	}
}

// TestBatchMigrationRedirects pins the mid-frame migration contract: a batch
// whose sub-ops straddle a ScheduleTransfer gets per-sub-op redirects — not a
// whole-frame error — and the client's retry loop converges on the new owner.
func TestBatchMigrationRedirects(t *testing.T) {
	mon, _, _ := startCluster(t, 2)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// Pick a migratable subtree root and a path inside it.
	var root string
	for r := range c.Index() {
		root = r
		break
	}
	if root == "" {
		t.Skip("no subtree in index")
	}
	inside := root
	for p := range c.Index() {
		if strings.HasPrefix(p, root+"/") {
			inside = p
			break
		}
	}
	owner := c.Index()[root]
	destID, found := 0, false
	for _, mem := range mon.Members() {
		if mem.Alive && mem.Addr != owner {
			destID, found = mem.ID, true
			break
		}
	}
	if !found {
		t.Skip("no destination server")
	}

	// Frame the server with the stale pre-migration route: one sub-op in the
	// migrated subtree, one against the global layer (the root is replicated
	// on every server). The old owner must redirect the first and still serve
	// the second.
	glPath := "/"
	if err := mon.ScheduleTransfer(root, destID); err != nil {
		t.Fatal(err)
	}
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

	// Ask the OLD owner directly: the batch must come back with a per-sub-op
	// redirect for the migrated path while the GL sub-op still settles.
	var raw wire.BatchResponse
	sawRedirect := false
	for time.Now().Before(deadline) {
		conn, err := wire.Dial(owner, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		err = conn.Call(wire.TypeBatch, &wire.BatchRequest{Ops: []wire.BatchOp{
			{Op: wire.BatchLookup, Path: inside},
			{Op: wire.BatchLookup, Path: glPath},
		}}, &raw)
		_ = conn.Close()
		if err != nil {
			t.Fatalf("whole-frame error from straddling batch: %v", err)
		}
		if len(raw.Results) != 2 {
			t.Fatalf("got %d results, want 2", len(raw.Results))
		}
		if raw.Results[0].Redirect != "" {
			sawRedirect = true
			break
		}
		// The old owner has not absorbed the index update yet; let its
		// heartbeat catch up.
		time.Sleep(20 * time.Millisecond)
	}
	if !sawRedirect {
		t.Fatal("old owner never redirected the migrated sub-op")
	}
	if raw.Results[1].Entry == nil || raw.Results[1].Err != "" {
		t.Fatalf("co-framed GL sub-op was poisoned by the redirect: %+v", raw.Results[1])
	}

	// The client's Batch must follow that per-sub-op redirect and converge.
	results, err := c.Batch([]wire.BatchOp{
		{Op: wire.BatchLookup, Path: inside},
		{Op: wire.BatchLookup, Path: glPath},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Entry == nil || res.Err != "" || res.Redirect != "" {
			t.Fatalf("sub-op %d did not converge after migration: %+v", i, res)
		}
	}
}

// TestReaddirPlusPopulatesCache checks the 1-RPC `ls -l`: every child entry
// a readdirplus returns is served from the client cache afterwards.
func TestReaddirPlusPopulatesCache(t *testing.T) {
	mon, _, w := startCluster(t, 2)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1, CacheEntries: 1024})
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
	entries, err := c.ReaddirPlus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != want {
		t.Fatalf("ReaddirPlus(%s) = %d entries, want %d", dir, len(entries), want)
	}
	names, err := c.Readdir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(entries) {
		t.Errorf("readdirplus and readdir disagree: %d vs %d children", len(entries), len(names))
	}
	before := c.CacheCounters().Hits
	for _, e := range entries {
		if e.Version <= 0 {
			continue // remote placeholder: not cached by contract
		}
		got, err := c.Lookup(e.Path)
		if err != nil {
			t.Fatalf("lookup %s after readdirplus: %v", e.Path, err)
		}
		if got.Version != e.Version {
			t.Errorf("%s: version %d from cache, %d from listing", e.Path, got.Version, e.Version)
		}
	}
	cached := 0
	for _, e := range entries {
		if e.Version > 0 {
			cached++
		}
	}
	if hits := c.CacheCounters().Hits; hits < before+uint64(cached) {
		t.Errorf("lookups after readdirplus missed the cache: hits %d -> %d, want +%d", before, hits, cached)
	}
}

// TestCreateWithAttrs checks the fused create+setattr: one RPC, one version,
// attributes committed, entry cached under its lease.
func TestCreateWithAttrs(t *testing.T) {
	mon, _, w := startCluster(t, 2)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var parent string
	for _, n := range w.Tree.Nodes() {
		if n.IsDir() && n.Depth() >= 3 {
			parent = w.Tree.Path(n)
			break
		}
	}
	if parent == "" {
		t.Skip("no deep dir in workload")
	}
	path := parent + "/fused-file"
	e, err := c.CreateWithAttrs(path, wire.EntryFile, 4096, 0o640)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != 4096 || e.Mode != 0o640 || e.Version != 1 {
		t.Fatalf("fused create committed %+v", e)
	}
	before := c.CacheCounters().Hits
	got, err := c.Lookup(path)
	if err != nil || got.Size != 4096 || got.Mode != 0o640 {
		t.Fatalf("lookup after fused create: %+v, %v", got, err)
	}
	if hits := c.CacheCounters().Hits; hits != before+1 {
		t.Errorf("fused create did not cache its entry: hits %d -> %d", before, hits)
	}

	// Also through the GL path: a shallow path lands in the global layer and
	// must keep its attributes through the Monitor round-trip.
	glp := "/fused-gl-file"
	ge, err := c.CreateWithAttrs(glp, wire.EntryFile, 9, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if ge.Size != 9 || ge.Mode != 0o600 {
		t.Fatalf("GL fused create dropped attrs: %+v", ge)
	}
}

// listFrom asks one MDS directly for a directory's children, bypassing the
// client's routing and its merge.
func listFrom(t *testing.T, addr, dir string) ([]wire.Entry, []string) {
	t.Helper()
	conn, err := wire.DialCall(addr, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	var plus wire.ReaddirPlusResponse
	if err := conn.Call(wire.TypeReaddirPlus, &wire.ReaddirPlusRequest{Path: dir}, &plus); err != nil {
		t.Fatalf("readdirplus %s from %s: %v", dir, addr, err)
	}
	var plain wire.ReaddirResponse
	if err := conn.Call(wire.TypeReaddir, &wire.ReaddirRequest{Path: dir}, &plain); err != nil {
		t.Fatalf("readdir %s from %s: %v", dir, addr, err)
	}
	return plus.Entries, plain.Names
}

// listed returns the entries at path in a listing and how often the plain
// listing names it.
func listed(entries []wire.Entry, names []string, path string) (found []wire.Entry, named int) {
	for _, e := range entries {
		if e.Path == path {
			found = append(found, e)
		}
	}
	for _, n := range names {
		if n == path[strings.LastIndexByte(path, '/')+1:] {
			named++
		}
	}
	return found, named
}

// TestListingAcrossTheCutWhileIndexChanges: a directory above the cut lists
// each subtree root under it exactly once while index entries appear and
// move under it — from the MDS whose index has the root (holding it or
// not), from the MDS whose index lacks it, and through the client's merge
// whether or not the response already carried the root.
func TestListingAcrossTheCutWhileIndexChanges(t *testing.T) {
	mon, servers, _ := startCluster(t, 2)
	c, err := client.Connect(client.Config{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// A subtree root, the GL directory above it, its owner and the other MDS.
	var root string
	for r := range c.Index() {
		if root == "" || r < root {
			root = r
		}
	}
	if root == "" {
		t.Skip("no subtree in index")
	}
	dir := "/"
	if i := strings.LastIndexByte(root, '/'); i > 0 {
		dir = root[:i]
	}
	owner := c.Index()[root]
	other, otherID := "", -1
	for _, mem := range mon.Members() {
		if mem.Alive && mem.Addr != owner {
			other, otherID = mem.Addr, mem.ID
		}
	}
	if other == "" {
		t.Skip("no second server")
	}
	once := func(what string, entries []wire.Entry, names []string, path string, placeholder bool) {
		t.Helper()
		found, named := listed(entries, names, path)
		if len(found) != 1 || named != 1 {
			t.Fatalf("%s: %s listed %d times by readdirplus, %d by readdir; want once each\n%+v\n%v",
				what, path, len(found), named, entries, names)
		}
		if (found[0].Version == 0) != placeholder {
			t.Fatalf("%s: %s listed as %+v, placeholder=%v wanted", what, path, found[0], placeholder)
		}
	}
	throughClient := func(what string, paths ...string) {
		t.Helper()
		before := [2]int64{}
		for i, srv := range servers {
			st, err := c.Stats(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			before[i] = st.ReaddirPlus
		}
		for i := 0; i < 16; i++ {
			entries, err := c.ReaddirPlus(dir)
			if err != nil {
				t.Fatal(err)
			}
			names, err := c.Readdir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				if found, named := listed(entries, names, p); len(found) != 1 || named != 1 {
					t.Fatalf("%s: client lists %s %d times by readdirplus, %d by readdir; want once each\n%+v\n%v",
						what, p, len(found), named, entries, names)
				}
			}
		}
		// dir is replicated, so the client picks a server at random: both
		// must have answered, or one of the two cases went unexercised.
		for i, srv := range servers {
			st, err := c.Stats(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if st.ReaddirPlus == before[i] {
				t.Fatalf("%s: %s served none of the 16 listings", what, srv.Addr())
			}
		}
	}

	entries, names := listFrom(t, owner, dir)
	once("before, owner", entries, names, root, false)
	entries, names = listFrom(t, other, dir)
	once("before, other", entries, names, root, true)
	throughClient("before", root)

	// A new subtree root appears under dir on the other MDS. Only that
	// server's index knows it: it lists the root it holds once, not once as
	// a child and once more as an indexed root.
	fresh := dir + "/zz-new-root"
	if dir == "/" {
		fresh = "/zz-new-root"
	}
	conn, err := wire.DialCall(other, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	var ack wire.LockResponse
	if err := conn.Call(wire.TypeInstall, &wire.InstallRequest{RootPath: fresh, Entries: []wire.Entry{
		{Path: fresh, Kind: wire.EntryDir, Version: 1},
		{Path: fresh + "/f", Kind: wire.EntryFile, Version: 1},
	}}, &ack); err != nil {
		t.Fatal(err)
	}
	entries, names = listFrom(t, other, dir)
	once("installed, other", entries, names, fresh, false)
	once("installed, other", entries, names, root, true)
	entries, names = listFrom(t, owner, dir)
	if found, named := listed(entries, names, fresh); len(found) != 0 || named != 0 {
		t.Fatalf("the owner's index cannot know %s yet, but it lists it: %+v %v", fresh, entries, names)
	}

	// The client learns of the new root before the first MDS does. Served by
	// that MDS, the merge adds the root; served by the other, the response
	// carries it and the merge must not add it again.
	c.SetIndexEntry(fresh, other)
	throughClient("client ahead", root, fresh)

	// The first root moves to the other MDS: an existing index entry changes
	// owner on the source, and the destination's next index refresh is
	// re-pinned with the root it was handed directly.
	if err := mon.ScheduleTransfer(root, otherID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Index()[root] != other {
		if time.Now().After(deadline) {
			t.Fatalf("transfer of %s to %s never committed", root, other)
		}
		time.Sleep(20 * time.Millisecond)
		if err := c.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	// The destination must have taken the Monitor's post-transfer index
	// first, so that it is checked on a replaced index with its pinned entry
	// re-applied, not on the one it patched in place.
	ms, err := c.MonitorStats()
	if err != nil {
		t.Fatal(err)
	}
	for {
		var resp wire.LookupResponse
		if err := conn.Call(wire.TypeLookup, &wire.LookupRequest{Path: "/"}, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.IndexVer >= ms.IndexVer {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never took index version %d", other, ms.IndexVer)
		}
		time.Sleep(20 * time.Millisecond)
	}
	entries, names = listFrom(t, owner, dir)
	once("moved, old owner", entries, names, root, true)
	entries, names = listFrom(t, other, dir)
	once("moved, new owner", entries, names, root, false)
	once("moved, new owner", entries, names, fresh, false)
	c.SetIndexEntry(fresh, other) // the refresh replaced the client's index
	throughClient("moved", root, fresh)
}
