package server

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"d2tree/internal/monitor"
	"d2tree/internal/namespace"
	"d2tree/internal/trace"
	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// The reference the tree-shaped install is held to: the Monitor's
// subtreeEntriesLocked and appendSubtree, and the MDS's join and
// entry-by-entry install, as they were when subtrees shipped as entries by
// full path. Only the Monitor's receiver became a parameter.

func parentSubtreeEntriesLocked(tree *namespace.Tree, rootPath string) []wire.Entry {
	n, err := tree.Lookup(rootPath)
	if err != nil {
		return nil
	}
	out := parentAppendSubtree(make([]wire.Entry, 0, tree.SubtreeSize(n)), tree.Path(n), n)
	slices.SortFunc(out, func(a, b wire.Entry) int { return strings.Compare(a.Path, b.Path) })
	return out
}

func parentAppendSubtree(out []wire.Entry, path string, n *namespace.Node) []wire.Entry {
	out = append(out, parentEntryFor(path, n))
	if path == "/" {
		path = ""
	}
	kids := n.Children()
	slices.SortFunc(kids, func(a, b *namespace.Node) int { return strings.Compare(a.Name(), b.Name()) })
	for _, c := range kids {
		out = parentAppendSubtree(out, path+"/"+c.Name(), c)
	}
	return out
}

func parentEntryFor(path string, n *namespace.Node) wire.Entry {
	kind := wire.EntryDir
	if !n.IsDir() {
		kind = wire.EntryFile
	}
	return wire.Entry{Path: path, Kind: kind, Version: 1}
}

// parentInstallLocked is installLocked as it was.
func parentInstallLocked(s *Server, root string, entries []wire.Entry) {
	s.subtrees[root] = true
	for _, e := range entries {
		s.store.put(e, false)
	}
}

// parentApplyJoin installs what the parent's Monitor shipped for this join:
// identity, the global layer, then each subtree root the index routes to
// addr, in root order, entry by entry.
func parentApplyJoin(s *Server, tree *namespace.Tree, join *wire.JoinResponse, addr string) {
	s.id, s.glVersion, s.indexVer = join.ServerID, join.GLVersion, join.IndexVer
	var roots []string
	for root, owner := range join.Index {
		if owner == addr {
			roots = append(roots, root)
		}
	}
	sort.Strings(roots)
	var subtrees [][]wire.Entry
	installed := len(join.GlobalLayer)
	for _, root := range roots {
		if entries := parentSubtreeEntriesLocked(tree, root); len(entries) > 0 {
			subtrees = append(subtrees, entries)
			installed += len(entries)
		}
	}
	s.store.reserve(installed)
	s.store.replaceGL(join.GlobalLayer)
	for _, st := range subtrees {
		parentInstallLocked(s, st[0].Path, st)
	}
}

// nodesDigest renders the store's shape: every node, placeholders too, with
// whether it holds an entry and where it is linked.
func nodesDigest(st *store) string {
	lines := make([]string, 0, len(st.nodes))
	for path, n := range st.nodes {
		up := "-"
		if n.Parent() != nil {
			up = namespace.ParentPath(path)
		}
		lines = append(lines, fmt.Sprintf("%s present=%v under %s", path, n.Kind() != 0, up))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// sameStore fails unless got and want hold the same entries in the same
// layers, the same owned roots, GL version and tree shape.
func sameStore(t *testing.T, what string, got, want *Server) {
	t.Helper()
	checkTree(t, got.store)
	if g, w := storeDigest(got), storeDigest(want); g != w {
		t.Fatalf("%s: the store differs from the parent's (%d entries, want %d)", what, got.store.len(), want.store.len())
	}
	if g, w := nodesDigest(got.store), nodesDigest(want.store); g != w {
		t.Fatalf("%s: the tree's shape differs from the parent's (%d nodes, want %d)", what, len(got.store.nodes), len(want.store.nodes))
	}
}

// TestJoinInstallMatchesParent: for seeded LMBE, RA and DTR namespaces at 2k
// and 20k nodes, each of two MDSs joining a Monitor ends up with the store
// the parent's full-path join built, and a journaled joiner logs it in
// records no bigger than the log takes, which recover the same local layer.
func TestJoinInstallMatchesParent(t *testing.T) {
	for _, p := range []trace.Profile{trace.LMBE(), trace.RA(), trace.DTR()} {
		for _, size := range []int{2000, 20000} {
			t.Run(fmt.Sprintf("%s/%d", p.Name, size), func(t *testing.T) {
				if testing.Short() && size > 2000 {
					t.Skip("20k-node namespaces in -short")
				}
				build := func() *namespace.Tree {
					w, err := trace.BuildWorkload(p.Scale(size), 4*size, 11)
					if err != nil {
						t.Fatal(err)
					}
					return w.Tree
				}
				mon, err := monitor.New(build(), monitor.Config{Addr: "127.0.0.1:0", Servers: 2, HeartbeatTimeout: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				if err := mon.Start(); err != nil {
					t.Fatal(err)
				}
				defer func() { _ = mon.Close() }()
				ref := build()
				conn, err := wire.DialCall(mon.Addr(), time.Second, 10*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = conn.Close() }()
				for _, addr := range []string{"10.0.0.1:1", "10.0.0.2:2"} {
					var join wire.JoinResponse
					if err := conn.Call(wire.TypeJoin, &wire.JoinRequest{Addr: addr}, &join); err != nil {
						t.Fatal(err)
					}
					dir := t.TempDir()
					got := newDurableServer(t, dir)
					got.mu.Lock()
					got.applyJoinLocked(&join)
					tail := got.tail
					got.mu.Unlock()
					got.waitDurable(tail)
					if got.walDegraded.Load() {
						t.Fatal("the join's install records did not all reach the log")
					}
					want := newBareServer(t)
					parentApplyJoin(want, ref, &join, addr)
					sameStore(t, addr, got, want)
					got.mu.RLock()
					live := localDigest(got)
					got.mu.RUnlock()
					if recovered := recoveredDigest(t, dir); recovered != live {
						t.Fatalf("%s: recovery from the join's records differs from the live store", addr)
					}
				}
			})
		}
	}
}

// TestInstallFromPeerMatchesParent: a transfer between MDSs ships what the
// parent's collect-and-install shipped. The source holds a joined subtree
// with attributes and versions changed by setattrs, creates under it, and an
// entry whose directory it holds no entry for (a placeholder); the
// destination holds no global layer at all, so the root hangs off
// placeholders, and already holds some of the paths, which the install
// overwrites.
func TestInstallFromPeerMatchesParent(t *testing.T) {
	w, err := trace.BuildWorkload(trace.LMBE().Scale(2000), 8000, 3)
	if err != nil {
		t.Fatal(err)
	}
	var biggest *namespace.Node
	w.Tree.Walk(func(n *namespace.Node) bool {
		if n.Depth() == 2 && n.IsDir() && (biggest == nil || w.Tree.SubtreeSize(n) > w.Tree.SubtreeSize(biggest)) {
			biggest = n
		}
		return true
	})
	root := w.Tree.Path(biggest)
	src := newBareServer(t)
	src.mu.Lock()
	src.store.replaceGL([]wire.Entry{{Path: "/", Kind: wire.EntryDir, Version: 1}})
	entries := parentSubtreeEntriesLocked(w.Tree, root)
	src.commitInstallLocked([]wire.Subtree{tree(root, entries)})
	for i, e := range entries {
		switch i % 7 {
		case 1:
			if _, _, err := src.setattrLocked(wire.Entry{Path: e.Path, Size: int64(100 + i), Mode: 0o600}); err != nil {
				t.Fatal(err)
			}
		case 3:
			if e.Kind == wire.EntryDir {
				src.store.put(wire.Entry{Path: e.Path + "/new/deep", Kind: wire.EntryFile, Size: 5, Version: 2}, false)
			}
		}
	}
	src.mu.Unlock()
	shipped := src.store.tree(root, false)
	placeholders := 0
	for _, n := range shipped.Nodes {
		if n.Kind == 0 {
			placeholders++
		}
	}
	if placeholders == 0 {
		t.Fatal("the shipped subtree links no entry through a placeholder")
	}

	dest := func() *Server {
		s := newBareServer(t)
		held := entries[len(entries)/2]
		s.store.put(wire.Entry{Path: held.Path, Kind: held.Kind, Size: 1, Version: 9}, true)
		s.store.put(wire.Entry{Path: root, Kind: wire.EntryDir, Version: 4}, false)
		s.store.put(wire.Entry{Path: root + "-sibling/x", Kind: wire.EntryFile, Version: 1}, false)
		return s
	}
	got, want := dest(), dest()
	if _, err := got.handleInstall(&wire.Envelope{}, &wire.InstallRequest{Tree: shipped}); err != nil {
		t.Fatal(err)
	}
	src.mu.RLock()
	parentInstallLocked(want, root, collectSubtree(src, root))
	src.mu.RUnlock()
	sameStore(t, "install", got, want)
	if raced := src.unshippedLocked(shipped); raced != 0 {
		t.Fatalf("nothing changed since the shipment, but %d entries count as unshipped", raced)
	}
}

// TestInstallRecordsStayInTheLog: one subtree of several chunks' worth of
// nodes, deep and wide, with placeholders in it (one linking entries, one
// linking nothing), is journaled in records of
// at most installChunk nodes, each under wal.MaxRecordSize, that replay to
// what the server installed, alone and behind a JSON-era log's install or
// install_trees record for the same root.
func TestInstallRecordsStayInTheLog(t *testing.T) {
	const root = "/g/big"
	entries := []wire.Entry{{Path: root, Kind: wire.EntryDir, Version: 1}}
	for d := 0; d < 12; d++ {
		dir := fmt.Sprintf("%s/d%d", root, d)
		if d != 5 {
			entries = append(entries, wire.Entry{Path: dir, Kind: wire.EntryDir, Version: 1})
		}
		for deep := dir; len(deep) < len(dir)+40; deep += "/s" {
			for f := 0; f < 100; f++ {
				entries = append(entries, wire.Entry{Path: fmt.Sprintf("%s/%s-%d", deep, strings.Repeat("n", 60), f), Kind: wire.EntryFile, Size: int64(f), Version: 2})
			}
		}
	}
	big := tree(root, entries)
	// A path with no entry and nothing beneath it: the install must not
	// leave a placeholder for it.
	big.Nodes = append(big.Nodes, wire.SubtreeNode{Name: "holds-nothing"})
	if len(big.Nodes) < 3*installChunk {
		t.Fatalf("%d nodes, want several chunks", len(big.Nodes))
	}
	recs := installRecords([]wire.Subtree{{Path: "/g/empty"}, big})
	nodes := 0
	for i, rec := range recs {
		n := 0
		for _, tr := range rec.Trees {
			n += len(tr.Nodes)
		}
		if n > installChunk {
			t.Fatalf("record %d holds %d nodes", i, n)
		}
		if data, err := wire.AppendPayload(nil, "install_trees", rec); err != nil || len(data) > wal.MaxRecordSize {
			t.Fatalf("record %d takes %d bytes (%v)", i, len(data), err)
		}
		nodes += n
	}
	if len(recs) < 3 || nodes != len(big.Nodes) || !slices.Equal(recs[0].Roots, []string{"/g/empty", root}) {
		t.Fatalf("%d records, %d nodes of %d, first roots %v", len(recs), nodes, len(big.Nodes), recs[0].Roots)
	}

	for _, legacy := range []string{"", "install", "install_trees"} {
		dir := t.TempDir()
		switch legacy {
		case "install":
			// As the parent logged an install, in a JSON-era log the open
			// upgrades.
			writeJSONLog(t, filepath.Join(dir, "mds.wal"), wal.Item{Type: legacy, Payload: &legacyInstallRec{Root: root, Entries: entries[:10]}})
		case "install_trees":
			writeJSONLog(t, filepath.Join(dir, "mds.wal"), wal.Item{Type: legacy, Payload: map[string]interface{}{
				"roots": []string{root}, "trees": wire.AppendSubtrees(nil, []wire.Subtree{tree(root, entries[:10])})}})
		}
		s := newDurableServer(t, dir)
		s.mu.Lock()
		s.commitInstallLocked([]wire.Subtree{{Path: "/g/empty"}, big})
		tail := s.tail
		s.mu.Unlock()
		s.waitDurable(tail)
		if s.walDegraded.Load() {
			t.Fatal("an install record did not reach the log")
		}
		ref := newBareServer(t)
		ref.mu.Lock()
		if legacy != "" {
			parentInstallLocked(ref, root, entries[:10])
		}
		parentInstallLocked(ref, "/g/empty", nil)
		parentInstallLocked(ref, root, entries)
		ref.mu.Unlock()
		sameStore(t, "live", s, ref)
		ref.mu.RLock()
		want := localDigest(ref)
		ref.mu.RUnlock()
		if got := recoveredDigest(t, dir); got != want {
			t.Fatalf("legacy %q first: recovered\n%.2000s\nwant\n%.2000s", legacy, got, want)
		}
	}
}

// TestParentDataDirRecovers: a data directory the parent wrote, with a
// snapshot and, past it, a re-join's remove and install, an install from a
// peer, creates, setattrs, renames, an uninstall and a batch, all in the
// parent's record formats, recovers to the local layer the parent held
// (testdata/parent-datadir/digest.txt). The recovery upgrades its
// snapshot.json to an image and removes it; a reopen then reads only the
// image, and so does one that finds both, as a crash between writing the
// image and removing the JSON leaves them, and each reaches the same state.
func TestParentDataDirRecovers(t *testing.T) {
	src := filepath.Join("testdata", "parent-datadir")
	dir := t.TempDir()
	copyIn := func(name string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyIn("mds.wal")
	copyIn("snapshot.json")
	want, err := os.ReadFile(filepath.Join(src, "digest.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := recoveredDigest(t, dir) + "\n"; got != string(want) {
		t.Fatalf("recovered\n%s\nthe parent held\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("snapshot.json is still there after the upgrade (%v)", err)
	}
	if got := recoveredDigest(t, dir) + "\n"; got != string(want) {
		t.Fatalf("reopened from the image, recovered\n%s\nwant\n%s", got, want)
	}
	copyIn("snapshot.json")
	if got := recoveredDigest(t, dir) + "\n"; got != string(want) {
		t.Fatalf("with both the image and snapshot.json, recovered\n%s\nwant\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("snapshot.json is still there beside the image (%v)", err)
	}
}

// TestBadImageRefused: an image cut short at any length, or with any one
// byte flipped, fails the open with an error naming the file, and applies
// nothing.
func TestBadImageRefused(t *testing.T) {
	dir := t.TempDir()
	s := newDurableServer(t, dir)
	installEntries(s, "/r", []wire.Entry{
		{Path: "/r", Kind: wire.EntryDir, Version: 1},
		{Path: "/r/a", Kind: wire.EntryDir, Version: 2},
		{Path: "/r/a/f", Kind: wire.EntryFile, Size: 300, Mode: 0o644, Version: 3},
	})
	if err := s.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(s.imagePath())
	if err != nil {
		t.Fatal(err)
	}
	open := func(what string, img []byte) {
		t.Helper()
		bad := t.TempDir()
		if err := os.WriteFile(filepath.Join(bad, "snapshot.img"), img, 0o644); err != nil {
			t.Fatal(err)
		}
		r := New(Config{WALDir: bad})
		err := r.recoverFromDisk()
		if err == nil || !strings.Contains(err.Error(), filepath.Join(bad, "snapshot.img")) {
			t.Fatalf("%s: recovery returned %v, want an error naming the image", what, err)
		}
		if r.store.len() != 0 || len(r.subtrees) != 0 {
			t.Fatalf("%s: %d entries and %d roots applied from a bad image", what, r.store.len(), len(r.subtrees))
		}
	}
	for n := 0; n < len(good); n++ {
		open(fmt.Sprintf("cut to %d of %d bytes", n, len(good)), good[:n])
	}
	for i := range good {
		flipped := slices.Clone(good)
		flipped[i] ^= 0x20
		open(fmt.Sprintf("byte %d flipped", i), flipped)
	}
}

// TestFailedImageWriteKeepsTheOldState: an image write that fails (its
// temporary file is /dev/full, so every write returns ENOSPC) fails the
// snapshot and changes nothing on disk: the image in place stays, the log is
// not truncated behind it, and a restart recovers what the server held. An
// upgrade whose image write fails keeps snapshot.json, and a retry recovers
// from it.
func TestFailedImageWriteKeepsTheOldState(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	failNextWrite := func(dir string) {
		t.Helper()
		if err := os.Symlink("/dev/full", filepath.Join(dir, "snapshot.img.tmp")); err != nil {
			t.Fatal(err)
		}
	}
	unchanged := func(path string, want []byte) {
		t.Helper()
		// Lstat first: a failed write renamed into place would be the
		// symlink, and reading /dev/full never ends.
		if fi, err := os.Lstat(path); err != nil || !fi.Mode().IsRegular() {
			t.Fatalf("%s after the failed write: %v, %v", path, fi, err)
		}
		if got, err := os.ReadFile(path); err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s changed under the failed write (%v)", path, err)
		}
	}

	dir := t.TempDir()
	s := newDurableServer(t, dir)
	commit := func(root string) {
		t.Helper()
		s.mu.Lock()
		s.commitLocked(&wire.InstallRecord{Roots: []string{root}, Trees: []wire.Subtree{tree(root, []wire.Entry{
			{Path: root, Kind: wire.EntryDir, Version: 1},
			{Path: root + "/f", Kind: wire.EntryFile, Size: 7, Version: 2},
		})}})
		tail := s.tail
		s.mu.Unlock()
		if _, err := tail.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	commit("/r")
	if err := s.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	commit("/q")
	image, err := os.ReadFile(s.imagePath())
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(s.walPath())
	if err != nil {
		t.Fatal(err)
	}
	failNextWrite(dir)
	if err := s.writeSnapshot(); err == nil {
		t.Fatal("a snapshot whose image write failed reported success")
	}
	unchanged(s.imagePath(), image)
	unchanged(s.walPath(), log)
	if _, err := os.Lstat(s.imagePath() + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the temporary image is left behind (%v)", err)
	}
	s.mu.RLock()
	want := localDigest(s)
	s.mu.RUnlock()
	if got := recoveredDigest(t, dir); got != want {
		t.Fatalf("recovered\n%s\nthe server held\n%s", got, want)
	}

	src := filepath.Join("testdata", "parent-datadir")
	dir = t.TempDir()
	for _, name := range []string{"mds.wal", "snapshot.json"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	json, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	failNextWrite(dir)
	if err := New(Config{WALDir: dir}).recoverFromDisk(); err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "snapshot.json")) {
		t.Fatalf("an upgrade whose image write failed returned %v, want an error naming snapshot.json", err)
	}
	unchanged(filepath.Join(dir, "snapshot.json"), json)
	if _, err := os.Lstat(filepath.Join(dir, "snapshot.img")); !os.IsNotExist(err) {
		t.Fatalf("an image is in place after the failed upgrade (%v)", err)
	}
	digest, err := os.ReadFile(filepath.Join(src, "digest.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := recoveredDigest(t, dir) + "\n"; got != string(digest) {
		t.Fatalf("retried upgrade recovered\n%s\nthe parent held\n%s", got, digest)
	}
}

// TestGraftAtTheRoot: a subtree rooted at "/" builds its children's paths
// with one slash, as the parent's entries by full path had them.
func TestGraftAtTheRoot(t *testing.T) {
	entries := []wire.Entry{
		{Path: "/", Kind: wire.EntryDir, Version: 1},
		{Path: "/a", Kind: wire.EntryDir, Version: 1},
		{Path: "/a/b", Kind: wire.EntryFile, Size: 3, Version: 2},
		{Path: "/c", Kind: wire.EntryFile, Version: 1},
	}
	got, want := newBareServer(t), newBareServer(t)
	installEntries(got, "/", entries)
	parentInstallLocked(want, "/", entries)
	sameStore(t, "graft at /", got, want)
}
