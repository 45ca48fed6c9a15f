package namespace

import (
	"reflect"
	"testing"

	"d2tree/internal/wire"
)

// TestMergeAddsWhatTheTreeLacks: a tree merged into one that holds part of
// it ends up with every path of both, each of its own kind, and a merge of
// what the tree already holds adds nothing.
func TestMergeAddsWhatTheTreeLacks(t *testing.T) {
	full, part := NewTree(), NewTree()
	for _, p := range []string{"/a/b/f1", "/a/c/f2", "/d/f3", "/f4"} {
		if _, err := full.AddFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := full.MkdirAll("/a/empty"); err != nil {
		t.Fatal(err)
	}
	if _, err := part.AddFile("/a/b/f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := part.AddFile("/only/here"); err != nil {
		t.Fatal(err)
	}
	paths := func(tr *Tree) map[string]Kind {
		out := map[string]Kind{}
		tr.Walk(func(n *Node) bool {
			out[tr.Path(n)] = n.Kind()
			return true
		})
		return out
	}
	want := paths(full)
	for p, k := range paths(part) {
		want[p] = k
	}
	part.Merge(wire.Subtree{Path: "/", Nodes: AppendSubtree(nil, full.Root())})
	if got := paths(part); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged tree holds\n%v\nwant\n%v", got, want)
	}
	n := part.Len()
	part.Merge(wire.Subtree{Path: "/", Nodes: AppendSubtree(nil, full.Root())})
	if part.Len() != n {
		t.Fatalf("a second merge grew the tree from %d to %d nodes", n, part.Len())
	}
}
