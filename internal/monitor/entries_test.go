package monitor

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"d2tree/internal/namespace"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// parentSubtreeEntries is subtreeEntriesLocked as it was before the one-walk
// build, kept as the reference: SubtreeNodes, an ancestor walk per node for
// its path, then sort.Slice.
func parentSubtreeEntries(m *Monitor, rootPath string) []wire.Entry {
	n, err := m.tree.Lookup(rootPath)
	if err != nil {
		return nil
	}
	nodes := m.tree.SubtreeNodes(n)
	out := make([]wire.Entry, 0, len(nodes))
	for _, sn := range nodes {
		out = append(out, parentEntryFor(m.tree, sn))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func parentEntryFor(t *namespace.Tree, n *namespace.Node) wire.Entry {
	kind := wire.EntryDir
	if !n.IsDir() {
		kind = wire.EntryFile
	}
	return wire.Entry{Path: t.Path(n), Kind: kind, Version: 1}
}

// treeEntries spells a subtree out as entries by full path, sorted.
func treeEntries(t wire.Subtree) []wire.Entry {
	if len(t.Nodes) == 0 {
		return nil
	}
	out := make([]wire.Entry, len(t.Nodes))
	for i, n := range t.Nodes {
		out[i] = wire.Entry{Path: t.Path, Kind: n.Kind, Size: n.Size, Mode: n.Mode, Version: n.Version}
		if i > 0 {
			out[i].Path = strings.TrimSuffix(out[n.Parent].Path, "/") + "/" + n.Name
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// TestSubtreeEntriesMatchParent: for every subtree root of seeded LMBE, RA
// and DTR namespaces, after local-layer creates were mirrored in, the
// subtree a join or failover push ships holds the entries the parent's
// build shipped, and a join ships its roots' subtrees in root order.
func TestSubtreeEntriesMatchParent(t *testing.T) {
	for _, p := range []trace.Profile{trace.LMBE(), trace.RA(), trace.DTR()} {
		t.Run(p.Name, func(t *testing.T) {
			w, err := trace.BuildWorkload(p.Scale(3000), 12000, 7)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(w.Tree, Config{Servers: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = m.Close() }()
			m.mu.Lock()
			defer m.mu.Unlock()
			roots := make([]string, 0, len(m.subtreeOwner))
			for root := range m.subtreeOwner {
				roots = append(roots, root)
			}
			if len(roots) == 0 {
				t.Fatal("no subtree roots")
			}
			sort.Strings(roots)
			m.applyLocked(&wire.LLPathsRecord{Entries: []wire.Entry{
				{Path: roots[0] + "/new-dir/new-file", Kind: wire.EntryFile},
				{Path: roots[0] + "/new-dir", Kind: wire.EntryDir},
			}})
			for _, root := range append(roots, "/", "/no/such/root") {
				tree := m.subtreeLocked(root)
				if got, want := treeEntries(tree), parentSubtreeEntries(m, root); tree.Path != root || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d entries, the parent's build %d, or they differ", root, len(got), len(want))
				}
			}
			shuffled := append([]string{"/no/such/root"}, roots...)
			rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			trees := m.subtreesLocked(shuffled)
			if len(trees) != len(roots) {
				t.Fatalf("%d trees for %d roots", len(trees), len(roots))
			}
			for i, tree := range trees {
				if tree.Path != roots[i] || !reflect.DeepEqual(treeEntries(tree), parentSubtreeEntries(m, roots[i])) {
					t.Fatalf("join tree %d is %s, or differs from the parent's build of %s", i, tree.Path, roots[i])
				}
			}
		})
	}
}

// BenchmarkSubtreeEntries builds every subtree the second MDS to join (slot
// 1) receives at the benchmark's boot: 20k-node LMBE, 200k popularity events,
// seed 1, two MDSs. Run it at -cpu 1, as the benchmark's Monitor runs.
func BenchmarkSubtreeEntries(b *testing.B) {
	w, err := trace.BuildWorkload(trace.LMBE().Scale(20000), 200000, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(w.Tree, Config{Servers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	m.mu.Lock()
	defer m.mu.Unlock()
	var roots []string
	for root, owner := range m.subtreeOwner {
		if owner == 1 {
			roots = append(roots, root)
		}
	}
	var trees []wire.Subtree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trees = m.subtreesLocked(roots)
	}
	b.StopTimer()
	nodes := 0
	for _, t := range trees {
		nodes += len(t.Nodes)
	}
	b.ReportMetric(float64(len(trees)), "roots")
	b.ReportMetric(float64(nodes), "entries")
	b.ReportMetric(float64(len(wire.AppendSubtrees(nil, trees))), "bytes")
}
