package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// flatRef is the reference model the store is checked against: the flat
// path map the server held before the tree store, with that code's
// whole-map prefix scans kept verbatim.
type flatRef struct {
	entries  map[string]*wire.Entry
	gl       map[string]bool
	subtrees map[string]bool
}

func newFlatRef() *flatRef {
	return &flatRef{entries: map[string]*wire.Entry{}, gl: map[string]bool{}, subtrees: map[string]bool{}}
}

func (r *flatRef) put(e wire.Entry, gl bool) {
	r.entries[e.Path] = &e
	if gl {
		r.gl[e.Path] = true
	} else {
		delete(r.gl, e.Path)
	}
}

func (r *flatRef) install(root string, entries []wire.Entry) {
	r.subtrees[root] = true
	for _, e := range entries {
		r.put(e, false)
	}
}

func (r *flatRef) listing(dir string) []wire.Entry {
	prefix := dir + "/"
	if dir == "/" {
		prefix = "/"
	}
	out := []wire.Entry{}
	for p, e := range r.entries {
		if !strings.HasPrefix(p, prefix) || p == dir {
			continue
		}
		rest := p[len(prefix):]
		if rest == "" || strings.ContainsRune(rest, '/') {
			continue
		}
		out = append(out, *e)
	}
	sortByPath(out)
	return out
}

func (r *flatRef) collect(root string) []wire.Entry {
	prefix := root + "/"
	out := []wire.Entry{}
	for p, e := range r.entries {
		if p == root || strings.HasPrefix(p, prefix) {
			out = append(out, *e)
		}
	}
	sortByPath(out)
	return out
}

func (r *flatRef) rename(path, newName string) {
	if _, ok := r.entries[path]; !ok {
		return
	}
	newPath := path[:strings.LastIndexByte(path, '/')+1] + newName
	if newPath == path {
		return
	}
	oldPrefix, newPrefix := path+"/", newPath+"/"
	moved := []string{path}
	for p := range r.entries {
		if strings.HasPrefix(p, oldPrefix) {
			moved = append(moved, p)
		}
	}
	for _, p := range moved {
		e := r.entries[p]
		delete(r.entries, p)
		if p == path {
			e.Path = newPath
		} else {
			e.Path = newPrefix + p[len(oldPrefix):]
		}
		e.Version++
		r.entries[e.Path] = e
	}
}

func (r *flatRef) dropSubtree(root string) {
	delete(r.subtrees, root)
	for _, e := range r.collect(root) {
		if !r.gl[e.Path] {
			delete(r.entries, e.Path)
		}
	}
}

func (r *flatRef) replaceGL(entries []wire.Entry) {
	for p := range r.gl {
		delete(r.entries, p)
		delete(r.gl, p)
	}
	for _, e := range entries {
		r.put(e, true)
	}
}

func (r *flatRef) snapshot() []wire.Entry {
	out := []wire.Entry{}
	for p, e := range r.entries {
		if !r.gl[p] {
			out = append(out, *e)
		}
	}
	sortByPath(out)
	return out
}

// checkTree verifies the store's structure by ranging over its path index,
// which only a test may do: every node is linked under its parent, every
// placeholder still connects something, and the entry count is right.
func checkTree(t *testing.T, st *store) {
	t.Helper()
	present := 0
	for path, n := range st.nodes {
		if n.entry.Path != path {
			t.Fatalf("node keyed %q carries path %q", path, n.entry.Path)
		}
		if n.present {
			present++
		} else if n.child == nil {
			t.Fatalf("placeholder %q has no children", path)
		}
		pp := parentPath(path)
		if pp == "" {
			if n.parent != nil {
				t.Fatalf("%q has a parent", path)
			}
			continue
		}
		if n.parent == nil || n.parent != st.nodes[pp] {
			t.Fatalf("%q is not linked to the node at %q", path, pp)
		}
		linked := false
		for c := n.parent.child; c != nil; c = c.next {
			linked = linked || c == n
		}
		if !linked {
			t.Fatalf("%q is missing from its parent's children", path)
		}
	}
	if present != st.len() {
		t.Fatalf("len() = %d, %d nodes hold an entry", st.len(), present)
	}
}

// checkAgainstRef compares everything the server reads from the store with
// the reference: every entry and its layer, the listing of every directory
// (held or not), the walk of every owned root, len, and the snapshot set.
func checkAgainstRef(t *testing.T, s *Server, ref *flatRef) {
	t.Helper()
	checkTree(t, s.store)
	if s.store.len() != len(ref.entries) {
		t.Fatalf("len = %d, reference holds %d", s.store.len(), len(ref.entries))
	}
	dirs := map[string]bool{}
	for p, want := range ref.entries {
		got, gl := s.store.get(p)
		if got == nil || *got != *want || gl != ref.gl[p] {
			t.Fatalf("get(%q) = %+v gl=%v, want %+v gl=%v", p, got, gl, *want, ref.gl[p])
		}
		dirs[p] = true
		if pp := parentPath(p); pp != "" {
			dirs[pp] = true
		}
	}
	for dir := range dirs {
		got := []wire.Entry{}
		s.store.children(dir, func(e *wire.Entry) { got = append(got, *e) })
		sortByPath(got)
		if want := ref.listing(dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("children(%q) = %v, want %v", dir, got, want)
		}
	}
	for root := range ref.subtrees {
		if !s.subtrees[root] {
			t.Fatalf("root %q not owned", root)
		}
		got := []wire.Entry{}
		seen := map[string]bool{}
		s.store.walk(root, func(e *wire.Entry, _ bool) {
			if pp := parentPath(e.Path); e.Path != root && ref.entries[pp] != nil && !seen[pp] {
				t.Fatalf("walk(%q) reached %q before its parent", root, e.Path)
			}
			seen[e.Path] = true
			got = append(got, *e)
		})
		sortByPath(got)
		if want := ref.collect(root); !reflect.DeepEqual(got, want) {
			t.Fatalf("walk(%q) = %v, want %v", root, got, want)
		}
	}
	got := s.snapshotEntriesLocked()
	sortByPath(got)
	if want := ref.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot has %d entries, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
}

// subtreeEntries builds one local-layer subtree of about n entries under
// root. The split shape follows the random split trees of Holmgren and of
// Mohamed & Robert (PAPERS.md): a directory keeps a few entries and breaks
// the rest of its budget among a few subdirectories at uniform random cuts,
// and now and then keeps it all, which gives many small directories and a
// few very large ones. The uniform shape draws every fan-out from 0..8.
func subtreeEntries(rng *rand.Rand, root string, n int, split bool) []wire.Entry {
	out := []wire.Entry{{Path: root, Kind: wire.EntryDir, Version: 1}}
	file := func(dir string, i int) {
		out = append(out, wire.Entry{Path: fmt.Sprintf("%s/f%d", dir, i), Kind: wire.EntryFile, Size: rng.Int63n(1 << 20), Version: 1})
	}
	var fill func(dir string, n int)
	fill = func(dir string, n int) {
		keep, branch := rng.Intn(9), 1+rng.Intn(3)
		if split {
			keep, branch = rng.Intn(4), 2+rng.Intn(3)
			if rng.Intn(10) == 0 {
				keep = n
			}
		}
		if keep > n {
			keep = n
		}
		for i := 0; i < keep; i++ {
			file(dir, i)
		}
		n -= keep
		cuts := make([]int, branch-1)
		for i := range cuts {
			cuts[i] = rng.Intn(n + 1)
		}
		sort.Ints(cuts)
		cuts = append(cuts, n)
		prev := 0
		for i, c := range cuts {
			if share := c - prev; share > 0 {
				sub := fmt.Sprintf("%s/d%d", dir, i)
				out = append(out, wire.Entry{Path: sub, Kind: wire.EntryDir, Version: 1})
				fill(sub, share-1)
			}
			prev = c
		}
	}
	fill(root, n-1)
	return out
}

// TestStoreMatchesFlatReference drives seeded random sequences of the
// operations the server performs through the tree store and through the
// flat reference, and compares the two after every step.
func TestStoreMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		split := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d,split=%v", seed, split), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := newBareServer(t)
			ref := newFlatRef()

			ownedRoots := func() []string {
				roots := make([]string, 0, len(ref.subtrees))
				for root := range ref.subtrees {
					roots = append(roots, root)
				}
				sort.Strings(roots)
				return roots
			}
			glVersion := int64(0)
			// The global layer is the top of the namespace: "/", /gN and
			// /gN/hM. Each refresh redraws which of them exist, so a
			// directory above local subtree roots comes and goes.
			refreshGL := func() {
				glVersion++
				set := []wire.Entry{{Path: "/", Kind: wire.EntryDir, Version: glVersion}}
				for g := 0; g < 3; g++ {
					if rng.Intn(5) == 0 {
						continue
					}
					set = append(set, wire.Entry{Path: fmt.Sprintf("/g%d", g), Kind: wire.EntryDir, Version: glVersion})
					for h := 0; h < 2; h++ {
						if rng.Intn(4) != 0 {
							set = append(set, wire.Entry{Path: fmt.Sprintf("/g%d/h%d", g, h), Kind: wire.EntryDir, Version: glVersion})
						}
					}
				}
				// Now and then a re-evaluation promotes a top-level subtree
				// root into the global layer.
				for _, root := range ownedRoots() {
					if strings.Count(root, "/") == 3 && ref.entries[root] != nil && rng.Intn(6) == 0 {
						set = append(set, wire.Entry{Path: root, Kind: wire.EntryDir, Version: glVersion})
					}
				}
				rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
				s.store.replaceGL(set)
				ref.replaceGL(set)
			}
			// localPaths lists the local-layer entries under an owned root.
			localPaths := func() []string {
				var paths []string
				for _, root := range ownedRoots() {
					for _, e := range ref.collect(root) {
						if !ref.gl[e.Path] {
							paths = append(paths, e.Path)
						}
					}
				}
				sort.Strings(paths)
				return paths
			}

			refreshGL()
			checkAgainstRef(t, s, ref)
			for step := 0; step < 100; step++ {
				switch op := rng.Intn(10); {
				case op < 3: // install, entries parents-first or shuffled
					root := fmt.Sprintf("/g%d/h%d/r%d", rng.Intn(3), rng.Intn(2), rng.Intn(3))
					if roots := ownedRoots(); len(roots) > 0 && rng.Intn(5) == 0 {
						// A root nested inside an owned subtree.
						root = roots[rng.Intn(len(roots))] + "/d0"
					}
					entries := subtreeEntries(rng, root, 1+rng.Intn(60), split)
					if rng.Intn(2) == 0 {
						rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
					}
					s.installLocked(root, entries)
					ref.install(root, entries)
				case op < 5: // create, sometimes under directories not held
					roots := ownedRoots()
					if len(roots) == 0 {
						continue
					}
					path := roots[rng.Intn(len(roots))]
					if paths := localPaths(); len(paths) > 0 && rng.Intn(3) > 0 {
						path = paths[rng.Intn(len(paths))]
					}
					for depth := 1 + rng.Intn(3); depth > 0; depth-- {
						path += fmt.Sprintf("/n%d", rng.Intn(4))
					}
					if ref.entries[path] != nil {
						continue
					}
					kind := wire.EntryFile
					if rng.Intn(2) == 0 {
						kind = wire.EntryDir
					}
					e := wire.Entry{Path: path, Kind: kind, Version: 1}
					s.store.put(e, false)
					ref.put(e, false)
				case op < 6: // setattr in place
					paths := localPaths()
					if len(paths) == 0 {
						continue
					}
					path := paths[rng.Intn(len(paths))]
					size := rng.Int63n(1 << 30)
					for _, e := range []*wire.Entry{ref.entries[path], mustGet(t, s.store, path)} {
						e.Size = size
						e.Version++
					}
				case op < 8: // rename, onto a fresh name or one only a placeholder holds
					paths := localPaths()
					if len(paths) == 0 {
						continue
					}
					path := paths[rng.Intn(len(paths))]
					newName := fmt.Sprintf("n%d", rng.Intn(6))
					newPath := path[:strings.LastIndexByte(path, '/')+1] + newName
					if ref.subtrees[path] || ref.entries[newPath] != nil {
						continue // what handleRename refuses
					}
					s.store.rename(path, newName)
					ref.rename(path, newName)
				case op < 9: // drop an owned subtree, or a path that is not one
					roots := ownedRoots()
					if len(roots) == 0 {
						continue
					}
					root := roots[rng.Intn(len(roots))]
					if rng.Intn(6) == 0 {
						root += "/absent"
					}
					s.dropSubtreeLocked(root)
					ref.dropSubtree(root)
				default:
					refreshGL()
				}
				checkAgainstRef(t, s, ref)
			}
		})
	}
}

func mustGet(t *testing.T, st *store, path string) *wire.Entry {
	t.Helper()
	e, _ := st.get(path)
	if e == nil {
		t.Fatalf("store holds nothing at %q", path)
	}
	return e
}

// TestStoreChildBeforeParent: an install lands under a global-layer
// directory the replica does not hold yet, children ahead of their own
// parents; once the refresh brings the directory, everything is listed.
func TestStoreChildBeforeParent(t *testing.T) {
	s := newBareServer(t)
	_, err := s.handleInstall(&wire.Envelope{}, &wire.InstallRequest{RootPath: "/g/r", Entries: []wire.Entry{
		{Path: "/g/r/d/f", Kind: wire.EntryFile, Version: 4},
		{Path: "/g/r/d", Kind: wire.EntryDir, Version: 2},
		{Path: "/g/r", Kind: wire.EntryDir, Version: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, s.store)
	if _, err := s.handleReaddir(&wire.ReaddirRequest{Path: "/g"}); err == nil {
		t.Fatal("listed a directory that is not held")
	}
	s.applyHeartbeat(&wire.HeartbeatResponse{GLVersion: 1, GlobalLayer: []wire.Entry{
		{Path: "/g", Kind: wire.EntryDir, Version: 1},
		{Path: "/", Kind: wire.EntryDir, Version: 1},
	}})
	checkTree(t, s.store)
	for dir, want := range map[string][]string{"/": {"g"}, "/g": {"r"}, "/g/r": {"d"}, "/g/r/d": {"f"}} {
		resp, err := s.handleReaddir(&wire.ReaddirRequest{Path: dir})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Names, want) {
			t.Errorf("readdir %s = %v, want %v", dir, resp.Names, want)
		}
	}
}

// TestStoreReplaceGLKeepsLocalLayer: a refresh that swaps, drops and
// restores a global-layer directory never touches the local-layer subtree
// under it, and lists its root whenever the directory is held.
func TestStoreReplaceGLKeepsLocalLayer(t *testing.T) {
	s := newBareServer(t)
	gl := func(version int64, paths ...string) []wire.Entry {
		var set []wire.Entry
		for _, p := range paths {
			set = append(set, wire.Entry{Path: p, Kind: wire.EntryDir, Version: version})
		}
		return set
	}
	s.store.replaceGL(gl(1, "/", "/g"))
	s.installLocked("/g/r", []wire.Entry{
		{Path: "/g/r", Kind: wire.EntryDir, Version: 7},
		{Path: "/g/r/f", Kind: wire.EntryFile, Version: 9},
	})
	localIntact := func(when string) {
		t.Helper()
		checkTree(t, s.store)
		for path, version := range map[string]int64{"/g/r": 7, "/g/r/f": 9} {
			if e, gl := s.store.get(path); e == nil || e.Version != version || gl {
				t.Fatalf("%s: %s = %+v gl=%v", when, path, e, gl)
			}
		}
	}
	listsRoot := func(when string) {
		t.Helper()
		resp, err := s.handleReaddirPlus(&wire.ReaddirPlusRequest{Path: "/g"})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(resp.Entries) != 1 || resp.Entries[0].Path != "/g/r" || resp.Entries[0].Version != 7 {
			t.Fatalf("%s: /g lists %+v", when, resp.Entries)
		}
	}

	s.store.replaceGL(gl(2, "/", "/g", "/h"))
	localIntact("swapped")
	listsRoot("swapped")
	if e, gl := s.store.get("/g"); e == nil || e.Version != 2 || !gl {
		t.Fatalf("swapped: /g = %+v gl=%v", e, gl)
	}

	s.store.replaceGL(gl(3, "/", "/h"))
	localIntact("dropped")
	if e, _ := s.store.get("/g"); e != nil {
		t.Fatalf("dropped: /g still held: %+v", e)
	}
	if s.store.len() != 4 {
		t.Fatalf("dropped: len = %d, want 4", s.store.len())
	}

	s.store.replaceGL(gl(4, "/", "/g"))
	localIntact("restored")
	listsRoot("restored")
	if e, _ := s.store.get("/h"); e != nil {
		t.Fatalf("restored: /h still held: %+v", e)
	}
}

// TestListingAcrossTheCut: a global-layer directory with one subtree root
// hosted here and one hosted elsewhere lists both, the remote one as the
// Version-0 placeholder, from both listing handlers.
func TestListingAcrossTheCut(t *testing.T) {
	s := newBareServer(t)
	s.store.replaceGL([]wire.Entry{{Path: "/", Kind: wire.EntryDir, Version: 1}, {Path: "/g", Kind: wire.EntryDir, Version: 5}})
	s.installLocked("/g/local", []wire.Entry{
		{Path: "/g/local", Kind: wire.EntryDir, Mode: 0o755, Version: 3},
		{Path: "/g/local/deep", Kind: wire.EntryFile, Version: 1},
	})
	s.index.Set("/g/local", s.Addr())
	s.index.Set("/g/remote", "other:1")
	s.index.Set("/elsewhere/root", "other:1")

	plus, err := s.handleReaddirPlus(&wire.ReaddirPlusRequest{Path: "/g"})
	if err != nil {
		t.Fatal(err)
	}
	want := []wire.Entry{
		{Path: "/g/local", Kind: wire.EntryDir, Mode: 0o755, Version: 3},
		{Path: "/g/remote", Kind: wire.EntryDir},
	}
	if !reflect.DeepEqual(plus.Entries, want) || plus.DirVersion != 5 || plus.LeaseMS == 0 {
		t.Errorf("readdirplus = %+v", plus)
	}
	plain, err := s.handleReaddir(&wire.ReaddirRequest{Path: "/g"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Names, []string{"local", "remote"}) || plain.DirVersion != 5 {
		t.Errorf("readdir = %+v", plain)
	}
	// An empty directory lists as empty, not as null.
	leaf, err := s.handleReaddirPlus(&wire.ReaddirPlusRequest{Path: "/g/local"})
	if err != nil || len(leaf.Entries) != 1 {
		t.Fatalf("readdirplus /g/local = %+v, %v", leaf, err)
	}
	s.store.put(wire.Entry{Path: "/g/local/empty", Kind: wire.EntryDir, Version: 1}, false)
	if empty, err := s.handleReaddirPlus(&wire.ReaddirPlusRequest{Path: "/g/local/empty"}); err != nil || empty.Entries == nil || len(empty.Entries) != 0 {
		t.Errorf("readdirplus of an empty directory = %+v, %v", empty, err)
	}
}

// TestRenameDirTouchesOnlyDescendants: on a 10k-entry store a directory
// rename rewrites its descendants and nothing else, and the journaled
// record replays to the same state from scratch and to no change on top.
func TestRenameDirTouchesOnlyDescendants(t *testing.T) {
	const root = "/g/r"
	entries := subtreeEntries(rand.New(rand.NewSource(7)), root, 10000, true)
	build := func() *Server {
		s := newBareServer(t)
		s.installLocked(root, entries)
		s.index.Set(root, s.Addr())
		return s
	}
	// The victim: a directory with descendants, but a small share of the store.
	below := map[string]int{}
	for _, e := range entries {
		for up := parentPath(e.Path); up != ""; up = parentPath(up) {
			below[up]++
		}
	}
	var victim string
	for _, e := range entries {
		if n := below[e.Path]; e.Path != root && n > 20 && n < 500 {
			victim = e.Path
			break
		}
	}
	if victim == "" {
		t.Fatal("no suitable directory in the generated subtree")
	}
	ref := newFlatRefOf(entries)
	inside := below[victim] + 1

	s := build()
	before := map[string]*wire.Entry{}
	s.store.walk(root, func(e *wire.Entry, _ bool) { before[e.Path] = e })
	if _, err := s.handleRename(&wire.RenameRequest{Path: victim, NewName: "renamed"}); err != nil {
		t.Fatal(err)
	}
	ref.rename(victim, "renamed")
	checkTree(t, s.store)
	if got := s.collectSubtreeLocked(root); !reflect.DeepEqual(got, ref.collect(root)) {
		t.Fatal("renamed store differs from the reference")
	}
	untouched := 0
	s.store.walk(root, func(e *wire.Entry, _ bool) {
		if before[e.Path] == e {
			untouched++
		}
	})
	if want := len(entries) - inside; untouched != want {
		t.Errorf("%d of %d entries outside the renamed directory kept their node, want all %d", untouched, len(entries), want)
	}

	data, err := json.Marshal(&walRenameRec{Path: victim, NewName: "renamed"})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{Seq: 1, Type: "rename", Data: data}
	replayed := build()
	for round := 0; round < 2; round++ {
		if err := replayed.applyWALRecord(rec); err != nil {
			t.Fatal(err)
		}
		if got := replayed.collectSubtreeLocked(root); !reflect.DeepEqual(got, ref.collect(root)) {
			t.Fatalf("replay round %d differs from the live rename", round)
		}
	}
	if err := s.applyWALRecord(rec); err != nil {
		t.Fatal(err)
	}
	if got := s.collectSubtreeLocked(root); !reflect.DeepEqual(got, ref.collect(root)) {
		t.Fatal("replaying the record over the live rename changed the store")
	}
}

func newFlatRefOf(entries []wire.Entry) *flatRef {
	ref := newFlatRef()
	for _, e := range entries {
		ref.put(e, false)
	}
	return ref
}

var benchSink *wire.ReaddirPlusResponse

// benchListing times handleReaddirPlus on one 8-child directory of a server
// holding entries entries and indexing roots subtree roots, none of them
// under the listed directory.
func benchListing(b *testing.B, entries, roots int) {
	s := New(Config{Addr: "127.0.0.1:0", MonitorAddr: "unused"})
	put := func(e wire.Entry) { s.store.put(e, false) }
	s.subtrees["/r"] = true
	s.index.Set("/r", "")
	for i := 1; i < roots; i++ {
		s.index.Set(fmt.Sprintf("/g%d/r%d", i%40, i), "other:1")
	}
	put(wire.Entry{Path: "/r", Kind: wire.EntryDir, Version: 1})
	put(wire.Entry{Path: "/r/target", Kind: wire.EntryDir, Version: 1})
	for i := 0; i < 8; i++ {
		put(wire.Entry{Path: fmt.Sprintf("/r/target/f%d", i), Kind: wire.EntryFile, Version: 1})
	}
	for i := 0; s.store.len() < entries; i++ {
		if i%9 == 0 {
			put(wire.Entry{Path: fmt.Sprintf("/r/d%d", i/9), Kind: wire.EntryDir, Version: 1})
			continue
		}
		put(wire.Entry{Path: fmt.Sprintf("/r/d%d/f%d", i/9, i%9), Kind: wire.EntryFile, Version: 1})
	}
	req := &wire.ReaddirPlusRequest{Path: "/r/target"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.handleReaddirPlus(req)
		if err != nil || len(resp.Entries) != 8 {
			b.Fatalf("resp = %+v, err = %v", resp, err)
		}
		benchSink = resp
	}
}

// BenchmarkReaddirPlusStoreSize lists one 8-child directory while the store
// around it grows: the cost must not depend on the number of entries held.
// The index holds the 1 322 roots the benchmark's 20 000-node namespace cuts
// into: a one-root index hides any cost a listing pays per root.
func BenchmarkReaddirPlusStoreSize(b *testing.B) {
	for _, entries := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) { benchListing(b, entries, 1322) })
	}
}

// BenchmarkReaddirPlusIndexSize is the other axis: the same listing while
// the subtree-root index grows. It must be flat too.
func BenchmarkReaddirPlusIndexSize(b *testing.B) {
	for _, roots := range []int{1, 1322, 10000} {
		b.Run(fmt.Sprintf("roots=%d", roots), func(b *testing.B) { benchListing(b, 10000, roots) })
	}
}
