package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"d2tree/internal/namespace"
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
	seen     map[string]bool // every path ever put
}

func newFlatRef() *flatRef {
	return &flatRef{entries: map[string]*wire.Entry{}, gl: map[string]bool{}, subtrees: map[string]bool{}, seen: map[string]bool{}}
}

func (r *flatRef) put(e wire.Entry, gl bool) {
	r.entries[e.Path], r.seen[e.Path] = &e, true
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

// installEntries applies the install of entries, at and under root, as the
// one-pass graft of the subtree they form.
func installEntries(s *Server, root string, entries []wire.Entry) {
	s.applyLocked(&wire.InstallRecord{Roots: []string{root}, Trees: []wire.Subtree{tree(root, entries)}})
}

// entry returns a copy of the entry held at path, nil when none is held, and
// whether it is a global-layer entry.
func (st *store) entry(path string) (*wire.Entry, bool) {
	n := st.get(path)
	if n == nil {
		return nil, false
	}
	e := n.Entry(path)
	return &e, n.GL()
}

// each calls fn on the node at root, if any, and every node beneath it,
// children first, with its path.
func (st *store) each(root string, fn func(path string, n *namespace.Node)) {
	eachPath(st.nodes[root], root, fn)
}

// walk calls fn on a copy of every entry of the subtree at root, the root's
// own entry included, parents before children, in the order an install
// ships them (store.tree).
func (st *store) walk(root string, fn func(e *wire.Entry, gl bool)) {
	top := st.nodes[root]
	if top == nil {
		return
	}
	paths, i := wire.PathsOf([]wire.Subtree{st.tree(root, false)}), 0
	top.Walk(func(n *namespace.Node) bool {
		if n.Kind() != 0 {
			e := n.Entry(paths.At(i))
			fn(&e, n.GL())
		}
		i++
		return true
	})
}

// collectSubtree copies out the entries of the subtree at root, sorted by
// path.
func collectSubtree(s *Server, root string) []wire.Entry {
	var out []wire.Entry
	s.store.walk(root, func(e *wire.Entry, _ bool) { out = append(out, *e) })
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
// which only a test may do: every node is linked under its parent by the
// last name of its path, every kind-0 node still connects something, every
// global-layer node is indexed, holds an entry and is listed once in the
// store's global-layer list, and the entry count is right.
func checkTree(t *testing.T, st *store) {
	t.Helper()
	present, marked := 0, 0
	for path, n := range st.nodes {
		if n.GL() {
			marked++
		}
		if n.Kind() != 0 {
			present++
		} else if n.NumChildren() == 0 {
			t.Fatalf("kind-0 node %q has no children", path)
		}
		pp := namespace.ParentPath(path)
		if pp == "" {
			if n.Parent() != nil {
				t.Fatalf("%q has a parent", path)
			}
			continue
		}
		if n.Parent() == nil || n.Parent() != st.nodes[pp] {
			t.Fatalf("%q is not linked to the node at %q", path, pp)
		}
		if name := path[strings.LastIndexByte(path, '/')+1:]; n.Name() != name || n.Parent().Child(name) != n {
			t.Fatalf("%q is missing from its parent's children", path)
		}
	}
	if present != st.len() {
		t.Fatalf("len() = %d, %d nodes hold an entry", st.len(), present)
	}
	listed := map[*namespace.Node]bool{}
	for _, n := range st.gl {
		if !n.GL() {
			continue
		}
		if n.Kind() == 0 || st.nodes[n.Path()] != n {
			t.Fatalf("global-layer node %q is not held at its path", n.Path())
		}
		listed[n] = true
	}
	if len(listed) != marked {
		t.Fatalf("%d global-layer nodes listed, %d marked", len(listed), marked)
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
		got, gl := s.store.entry(p)
		if got == nil || *got != *want || gl != ref.gl[p] {
			t.Fatalf("get(%q) = %+v gl=%v, want %+v gl=%v", p, got, gl, *want, ref.gl[p])
		}
		dirs[p] = true
		if pp := namespace.ParentPath(p); pp != "" {
			dirs[pp] = true
		}
	}
	for dir := range dirs {
		got := []wire.Entry{}
		if n := s.store.nodes[dir]; n != nil {
			got = appendEntries(got, n, dir)
		}
		sortByPath(got)
		if want := ref.listing(dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("children(%q) = %v, want %v", dir, got, want)
		}
	}
	// A name resolves in its directory to the node the index holds at its
	// path, or to none: an unlinked child leaves no by-name entry behind.
	for p := range ref.seen {
		if up := s.store.nodes[namespace.ParentPath(p)]; up != nil && up.Child(p[strings.LastIndexByte(p, '/')+1:]) != s.store.nodes[p] {
			t.Fatalf("%q resolves by name to a node the index does not hold there", p)
		}
	}
	for root := range ref.subtrees {
		if !s.subtrees[root] {
			t.Fatalf("root %q not owned", root)
		}
		got := []wire.Entry{}
		seen := map[string]bool{}
		s.store.walk(root, func(e *wire.Entry, _ bool) {
			if pp := namespace.ParentPath(e.Path); e.Path != root && ref.entries[pp] != nil && !seen[pp] {
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
	got := treeEntries(s.store.tree("/", true))
	sortByPath(got)
	if want := ref.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot has %d entries, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	// The snapshot image must read back: encoded and decoded as the image
	// is, and loaded into a fresh store, it holds the reference's local
	// layer.
	data, err := wire.AppendPayload(nil, "image", &wire.Image{Tree: s.store.tree("/", true)})
	if err != nil {
		t.Fatal(err)
	}
	img := new(wire.Image)
	err = wire.DecodePayload(data, img)
	if err != nil {
		t.Fatalf("the store's image does not decode: %v", err)
	}
	fresh := newStore()
	fresh.graft([]wire.Subtree{img.Tree})
	checkTree(t, fresh)
	got = []wire.Entry{}
	fresh.walk("/", func(e *wire.Entry, _ bool) { got = append(got, *e) })
	sortByPath(got)
	if want := ref.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the image loads %d entries, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
}

// treeEntries returns the entries of tr, by full path.
func treeEntries(tr wire.Subtree) []wire.Entry {
	out := []wire.Entry{}
	paths := wire.PathsOf([]wire.Subtree{tr})
	for i, n := range tr.Nodes {
		if n.Kind != 0 {
			out = append(out, wire.Entry{Path: paths.At(i), Kind: n.Kind, Size: n.Size, Mode: n.Mode, Version: n.Version})
		}
	}
	return out
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
				// root into the global layer, with the files that make a
				// root wide, which a drop of the root then keeps.
				for _, root := range ownedRoots() {
					if strings.Count(root, "/") == 3 && ref.entries[root] != nil && rng.Intn(3) == 0 {
						set = append(set, wire.Entry{Path: root, Kind: wire.EntryDir, Version: glVersion})
						for i := 1; ref.entries[fmt.Sprintf("%s/w%d", root, i)] != nil; i++ {
							set = append(set, wire.Entry{Path: fmt.Sprintf("%s/w%d", root, i), Kind: wire.EntryFile, Version: glVersion})
						}
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
					if rng.Intn(3) == 0 {
						// A root with more children than a node lists
						// before it indexes them by name (16), so drops and
						// refreshes cross that threshold.
						for i := 17 + rng.Intn(8); i > 0; i-- {
							entries = append(entries, wire.Entry{Path: fmt.Sprintf("%s/w%d", root, i), Kind: wire.EntryFile, Version: 1})
						}
					}
					if rng.Intn(2) == 0 {
						rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
					}
					if rng.Intn(3) == 0 {
						// As replay applies an install logged before
						// installs were journaled as trees.
						s.applyLocked((&legacyInstallRec{Root: root, Entries: entries}).install())
					} else {
						installEntries(s, root, entries)
					}
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
					e := ref.entries[path]
					e.Size = size
					e.Version++
					mustGet(t, s.store, path).SetEntry(e)
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
					s.applyLocked(&wire.RemoveRecord{Root: root})
					ref.dropSubtree(root)
				default:
					refreshGL()
				}
				checkAgainstRef(t, s, ref)
			}
		})
	}
}

// TestInstallDropChurn: installing and dropping one 1,000-entry subtree a
// thousand times, with files created under it in each round, leaves the
// store's nodes, index and entry count where they started: a node dropped
// is gone, not parked in a table that only grows.
func TestInstallDropChurn(t *testing.T) {
	s := newBareServer(t)
	s.store.replaceGL([]wire.Entry{{Path: "/", Kind: wire.EntryDir, Version: 1}, {Path: "/g", Kind: wire.EntryDir, Version: 1}})
	const root = "/g/r"
	s.index.Set(root, s.Addr())
	entries := subtreeEntries(rand.New(rand.NewSource(1)), root, 1000, true)
	var dirs []string
	for _, e := range entries {
		if e.Kind == wire.EntryDir {
			dirs = append(dirs, e.Path)
		}
	}
	nodes, held, gl := len(s.store.nodes), s.store.len(), len(s.store.gl)
	for round := 0; round < 1000; round++ {
		installEntries(s, root, entries)
		for i := 0; i < 3; i++ {
			path := fmt.Sprintf("%s/churn%d", dirs[(round+i)%len(dirs)], i)
			if _, _, err := s.createLocked(wire.Entry{Path: path, Kind: wire.EntryFile}); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.store.len(); got != held+len(entries)+3 {
			t.Fatalf("round %d: %d entries held, want %d", round, got, held+len(entries)+3)
		}
		s.applyLocked(&wire.RemoveRecord{Root: root})
	}
	checkTree(t, s.store)
	if len(s.store.nodes) != nodes || s.store.len() != held || len(s.store.gl) != gl {
		t.Fatalf("after the churn: %d nodes, %d entries, %d global-layer nodes; before: %d, %d, %d",
			len(s.store.nodes), s.store.len(), len(s.store.gl), nodes, held, gl)
	}
}

func mustGet(t *testing.T, st *store, path string) *namespace.Node {
	t.Helper()
	n := st.get(path)
	if n == nil {
		t.Fatalf("store holds nothing at %q", path)
	}
	return n
}

// TestStoreChildBeforeParent: an install lands under a global-layer
// directory the replica does not hold yet, children ahead of their own
// parents; once the refresh brings the directory, everything is listed.
func TestStoreChildBeforeParent(t *testing.T) {
	s := newBareServer(t)
	_, err := s.handleInstall(&wire.Envelope{}, &wire.InstallRequest{Tree: tree("/g/r", []wire.Entry{
		{Path: "/g/r/d/f", Kind: wire.EntryFile, Version: 4},
		{Path: "/g/r/d", Kind: wire.EntryDir, Version: 2},
		{Path: "/g/r", Kind: wire.EntryDir, Version: 1},
	})})
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

// TestGraftNameTwice: a tree naming one path twice, under a directory the
// store did not hold and under one it did, grafts as the entries put one by
// one would: one node per path, the later entry in it, every child linked
// once and reachable from the map.
func TestGraftNameTwice(t *testing.T) {
	st := newStore()
	st.put(wire.Entry{Path: "/held", Kind: wire.EntryDir, Version: 1}, false)
	st.graft([]wire.Subtree{{Path: "/", Nodes: []wire.SubtreeNode{
		{Kind: wire.EntryDir, Version: 1},
		{Kind: wire.EntryDir, Name: "fresh", Version: 1},
		{Parent: 1, Kind: wire.EntryFile, Name: "f", Version: 2},
		{Parent: 1, Kind: wire.EntryFile, Name: "f", Version: 3},
		{Parent: 1, Kind: wire.EntryFile, Name: "g", Version: 4},
		{Kind: wire.EntryDir, Name: "held", Version: 5},
		{Parent: 5, Kind: wire.EntryFile, Name: "h", Version: 6},
		{Parent: 5, Kind: wire.EntryFile, Name: "h", Version: 7},
	}}})
	checkTree(t, st)
	reached := 0
	st.each("/", func(path string, n *namespace.Node) {
		reached++
		if st.nodes[path] != n {
			t.Errorf("%s is linked, and the map holds another node there", path)
		}
	})
	if reached != len(st.nodes) {
		t.Errorf("%d nodes linked beneath /, %d in the map", reached, len(st.nodes))
	}
	for path, want := range map[string]int64{"/fresh/f": 3, "/fresh/g": 4, "/held/h": 7} {
		if e, _ := st.entry(path); e == nil || e.Version != want {
			t.Errorf("%s holds %+v, want version %d", path, e, want)
		}
	}
}

// TestPutKindZeroTakesTheEntryAway: a kind-0 entry put over a held file,
// over a global-layer directory with entries beneath it, and over a path
// the store does not hold leaves no entry there, counts right, and keeps no
// global-layer node without an entry; a refresh that brings the directory
// back counts it once.
func TestPutKindZeroTakesTheEntryAway(t *testing.T) {
	st := newStore()
	gl := []wire.Entry{{Path: "/", Kind: wire.EntryDir, Version: 1}, {Path: "/g", Kind: wire.EntryDir, Version: 1}}
	st.replaceGL(gl)
	st.put(wire.Entry{Path: "/g/r", Kind: wire.EntryDir, Version: 1}, false)
	st.put(wire.Entry{Path: "/g/r/f", Kind: wire.EntryFile, Version: 1}, false)
	checkTree(t, st)
	for _, c := range []struct {
		path string
		gl   bool
		held int
	}{{"/g/r/f", false, 3}, {"/g", true, 2}, {"/absent/x", false, 2}, {"/g/r/f", false, 2}} {
		st.put(wire.Entry{Path: c.path}, c.gl)
		checkTree(t, st)
		if e, _ := st.entry(c.path); e != nil {
			t.Fatalf("kind-0 put of %s left %+v", c.path, e)
		}
		if st.len() != c.held {
			t.Fatalf("after a kind-0 put of %s len() = %d, want %d", c.path, st.len(), c.held)
		}
	}
	if st.nodes["/absent"] != nil || st.nodes["/absent/x"] != nil {
		t.Fatal("a kind-0 put of an absent path left nodes behind")
	}
	st.replaceGL(gl)
	checkTree(t, st)
	if st.len() != 3 {
		t.Fatalf("after the refresh len() = %d, want 3", st.len())
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
	installEntries(s, "/g/r", []wire.Entry{
		{Path: "/g/r", Kind: wire.EntryDir, Version: 7},
		{Path: "/g/r/f", Kind: wire.EntryFile, Version: 9},
	})
	localIntact := func(when string) {
		t.Helper()
		checkTree(t, s.store)
		for path, version := range map[string]int64{"/g/r": 7, "/g/r/f": 9} {
			if e, gl := s.store.entry(path); e == nil || e.Version != version || gl {
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
	if e, gl := s.store.entry("/g"); e == nil || e.Version != 2 || !gl {
		t.Fatalf("swapped: /g = %+v gl=%v", e, gl)
	}

	s.store.replaceGL(gl(3, "/", "/h"))
	localIntact("dropped")
	if e, _ := s.store.entry("/g"); e != nil {
		t.Fatalf("dropped: /g still held: %+v", e)
	}
	if s.store.len() != 4 {
		t.Fatalf("dropped: len = %d, want 4", s.store.len())
	}

	s.store.replaceGL(gl(4, "/", "/g"))
	localIntact("restored")
	listsRoot("restored")
	if e, _ := s.store.entry("/h"); e != nil {
		t.Fatalf("restored: /h still held: %+v", e)
	}
}

// TestListingAcrossTheCut: a global-layer directory with one subtree root
// hosted here and one hosted elsewhere lists both, the remote one as the
// Version-0 placeholder, from both listing handlers.
func TestListingAcrossTheCut(t *testing.T) {
	s := newBareServer(t)
	s.store.replaceGL([]wire.Entry{{Path: "/", Kind: wire.EntryDir, Version: 1}, {Path: "/g", Kind: wire.EntryDir, Version: 5}})
	installEntries(s, "/g/local", []wire.Entry{
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
		installEntries(s, root, entries)
		s.index.Set(root, s.Addr())
		return s
	}
	// The victim: a directory with descendants, but a small share of the store.
	below := map[string]int{}
	for _, e := range entries {
		for up := namespace.ParentPath(e.Path); up != ""; up = namespace.ParentPath(up) {
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
	before := map[string]*namespace.Node{}
	s.store.each(root, func(path string, n *namespace.Node) { before[path] = n })
	if _, err := s.handleRename(&wire.RenameRequest{Path: victim, NewName: "renamed"}); err != nil {
		t.Fatal(err)
	}
	ref.rename(victim, "renamed")
	checkTree(t, s.store)
	if got := collectSubtree(s, root); !reflect.DeepEqual(got, ref.collect(root)) {
		t.Fatal("renamed store differs from the reference")
	}
	untouched := 0
	s.store.each(root, func(path string, n *namespace.Node) {
		if n.Kind() != 0 && before[path] == n {
			untouched++
		}
	})
	if want := len(entries) - inside; untouched != want {
		t.Errorf("%d of %d entries outside the renamed directory kept their node, want all %d", untouched, len(entries), want)
	}

	data, err := wire.AppendPayload(nil, "rename", &wire.RenameRequest{Path: victim, NewName: "renamed"})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{Seq: 1, Type: "rename", Data: data}
	replayed := build()
	for round := 0; round < 2; round++ {
		if err := replayed.applyWALRecord(rec); err != nil {
			t.Fatal(err)
		}
		if got := collectSubtree(replayed, root); !reflect.DeepEqual(got, ref.collect(root)) {
			t.Fatalf("replay round %d differs from the live rename", round)
		}
	}
	if err := s.applyWALRecord(rec); err != nil {
		t.Fatal(err)
	}
	if got := collectSubtree(s, root); !reflect.DeepEqual(got, ref.collect(root)) {
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

// BenchmarkStoreGet resolves paths held in a store of 20k and 200k entries
// two ways: index is the store's one probe of its path index, as every
// lookup and revalidation does; walk descends from the root one name at a
// time through the child lists, as a store without the index would.
func BenchmarkStoreGet(b *testing.B) {
	for _, size := range []int{20000, 200000} {
		rng := rand.New(rand.NewSource(1))
		s := New(Config{Addr: "127.0.0.1:0", MonitorAddr: "unused"})
		entries := subtreeEntries(rng, "/g/r", size, true)
		installEntries(s, "/g/r", entries)
		probes := make([]string, 1024)
		for i := range probes {
			probes[i] = strings.Clone(entries[rng.Intn(len(entries))].Path)
		}
		walk := func(path string) *namespace.Node {
			n := s.store.nodes["/"]
			for rest := path[1:]; n != nil && rest != ""; {
				var name string
				name, rest, _ = strings.Cut(rest, "/")
				n = n.Child(name)
			}
			return n
		}
		for _, way := range []struct {
			name string
			get  func(string) *namespace.Node
		}{{"index", s.store.get}, {"walk", walk}} {
			b.Run(fmt.Sprintf("entries=%d/%s", size, way.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if way.get(probes[i%len(probes)]) == nil {
						b.Fatal("a held path did not resolve")
					}
				}
			})
		}
	}
}

// BenchmarkRenameDir renames a directory with 1k and with 10k entries
// beneath it, and back, one store rename per op: the relink, the version
// bumps and the re-keying of its subtree.
func BenchmarkRenameDir(b *testing.B) {
	for _, size := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("descendants=%d", size), func(b *testing.B) {
			s := New(Config{Addr: "127.0.0.1:0", MonitorAddr: "unused"})
			entries := append([]wire.Entry{{Path: "/g/r", Kind: wire.EntryDir, Version: 1}},
				subtreeEntries(rand.New(rand.NewSource(1)), "/g/r/a", size+1, true)...)
			installEntries(s, "/g/r", entries)
			names := [2]string{"a", "b"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.store.rename("/g/r/"+names[i%2], names[(i+1)%2]) == nil {
					b.Fatal("the directory to rename is not held")
				}
			}
		})
	}
}

// glRefreshes is BenchmarkReplaceGL's input: a 2,051-entry global layer
// with every tenth file left out, and the whole of it.
func glRefreshes() [2][]wire.Entry {
	full := append([]wire.Entry{{Path: "/", Kind: wire.EntryDir, Version: 1}},
		subtreeEntries(rand.New(rand.NewSource(1)), "/g", 2050, true)...)
	var part []wire.Entry
	for i, e := range full {
		if e.Kind == wire.EntryDir || i%10 != 0 {
			part = append(part, e)
		}
	}
	return [2][]wire.Entry{part, full}
}

// droppedSubtree is BenchmarkDropSubtree's input: a 10,101-entry subtree at /g/r.
func droppedSubtree() []wire.Entry {
	return append([]wire.Entry{{Path: "/g/r", Kind: wire.EntryDir, Version: 1}},
		subtreeEntries(rand.New(rand.NewSource(1)), "/g/r/a", 10100, true)...)
}

// BenchmarkReplaceGL refreshes a 2,051-entry global-layer replica, one
// store replaceGL per op: every other op drops every tenth file of it and
// the next restores them. A heartbeat's GL refresh costs this.
func BenchmarkReplaceGL(b *testing.B) {
	s := New(Config{Addr: "127.0.0.1:0", MonitorAddr: "unused"})
	lists := glRefreshes()
	s.store.replaceGL(lists[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.store.replaceGL(lists[i%2])
	}
	b.StopTimer()
	if s.store.len() != len(lists[(b.N-1)%2]) {
		b.Fatalf("store holds %d entries, want %d", s.store.len(), len(lists[(b.N-1)%2]))
	}
}

// BenchmarkDropSubtree drops a 10,101-entry subtree, as a source does once
// its transfer has shipped; the install that puts it back between ops is
// not timed.
func BenchmarkDropSubtree(b *testing.B) {
	s := New(Config{Addr: "127.0.0.1:0", MonitorAddr: "unused"})
	entries := droppedSubtree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		installEntries(s, "/g/r", entries)
		if s.store.len() != len(entries) {
			b.Fatalf("store holds %d entries, want %d", s.store.len(), len(entries))
		}
		b.StartTimer()
		s.store.dropSubtree("/g/r")
	}
	b.StopTimer()
	if s.store.len() != 0 {
		b.Fatalf("store holds %d entries after the drop", s.store.len())
	}
}

// Store budgets, per op on the inputs of BenchmarkReplaceGL and
// BenchmarkDropSubtree. The allocation budgets are what the store allocated
// when each node carried its global-layer mark and its siblings were
// linked in a list (86 and 18); keeping the global layer in a map by node
// and unlinking a dropped subtree child by child took 95 and 19–20, in
// 119 KB and 1.28 MB. Both now allocate about 28 KB and 303 KB.
const (
	replaceGLBytesBudget  = 40_000
	replaceGLAllocsBudget = 86
	dropBytesBudget       = 400_000
	dropAllocsBudget      = 18
)

// TestStoreRefreshAndDropAllocs holds a GL refresh and a subtree drop to
// their byte and allocation budgets.
func TestStoreRefreshAndDropAllocs(t *testing.T) {
	perOp := func(ops int, setup, op func(i int)) (size, allocs uint64) {
		var before, after runtime.MemStats
		for i := 0; i < ops; i++ {
			setup(i)
			runtime.ReadMemStats(&before)
			op(i)
			runtime.ReadMemStats(&after)
			size, allocs = size+after.TotalAlloc-before.TotalAlloc, allocs+after.Mallocs-before.Mallocs
		}
		return size / uint64(ops), allocs / uint64(ops)
	}
	s := newBareServer(t)
	lists := glRefreshes()
	s.store.replaceGL(lists[1])
	size, allocs := perOp(10, func(int) {}, func(i int) { s.store.replaceGL(lists[i%2]) })
	t.Logf("replaceGL: %d bytes in %d allocations an op", size, allocs)
	if size > replaceGLBytesBudget || allocs > replaceGLAllocsBudget {
		t.Errorf("replaceGL allocated %d bytes in %d allocations an op, budget %d in %d",
			size, allocs, replaceGLBytesBudget, replaceGLAllocsBudget)
	}
	entries := droppedSubtree()
	size, allocs = perOp(3, func(int) { installEntries(s, "/g/r", entries) }, func(int) { s.store.dropSubtree("/g/r") })
	t.Logf("dropSubtree: %d bytes in %d allocations an op", size, allocs)
	if size > dropBytesBudget || allocs > dropAllocsBudget {
		t.Errorf("dropSubtree allocated %d bytes in %d allocations an op, budget %d in %d",
			size, allocs, dropBytesBudget, dropAllocsBudget)
	}
}

// TestRefreshSkipsWhatLeftBefore: two global-layer nodes leave the layer
// before a refresh sweeps the old one, and the sweep must not read a path
// up their parent links, which no longer lead to them: one a rename merges
// away (a directory renamed onto a name only a kind-0 node holds absorbs
// it, its global-layer file with it), and one a kind-0 entry of the
// refresh itself takes away.
func TestRefreshSkipsWhatLeftBefore(t *testing.T) {
	st := newStore()
	root := wire.Entry{Path: "/", Kind: wire.EntryDir, Version: 1}
	st.replaceGL([]wire.Entry{root, {Path: "/a/x", Kind: wire.EntryFile, Version: 1}, {Path: "/g", Kind: wire.EntryDir, Version: 1}})
	st.put(wire.Entry{Path: "/c", Kind: wire.EntryDir, Version: 1}, false)
	st.put(wire.Entry{Path: "/c/x", Kind: wire.EntryFile, Version: 1}, false)
	if st.rename("/c", "a") == nil {
		t.Fatal("/c is not held")
	}
	checkTree(t, st)
	st.replaceGL([]wire.Entry{root, {Path: "/g"}})
	checkTree(t, st)
	for path, gl := range map[string]bool{"/": true, "/a": false, "/a/x": false} {
		if e, isGL := st.entry(path); e == nil || isGL != gl {
			t.Errorf("%s holds %+v, global layer %v; want an entry, global layer %v", path, e, isGL, gl)
		}
	}
	if e, _ := st.entry("/g"); e != nil || st.len() != 3 {
		t.Errorf("/g holds %+v and len() = %d, want none and 3", e, st.len())
	}
}
