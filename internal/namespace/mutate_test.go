package namespace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildMutTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree()
	for _, p := range []string{
		"/home/a/c.txt", "/home/b/g.pdf", "/var/log/x.log", "/usr/bin/tool",
	} {
		if _, err := tr.AddFile(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range tr.Nodes() {
		tr.Touch(n, 3)
	}
	return tr
}

func TestRenameMovesSubtree(t *testing.T) {
	tr := buildMutTree(t)
	a, _ := tr.Lookup("/home/a")
	vr, _ := tr.Lookup("/var")
	popBefore := a.TotalPopularity()
	totalBefore := tr.TotalPopularity()
	if err := tr.Rename(a, vr, "moved"); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Lookup("/var/moved/c.txt")
	if err != nil {
		t.Fatalf("moved file unreachable: %v", err)
	}
	if got.Depth() != 3 {
		t.Errorf("depth = %d, want 3", got.Depth())
	}
	if _, err := tr.Lookup("/home/a"); !errors.Is(err, ErrNotFound) {
		t.Error("old path still resolves")
	}
	if a.TotalPopularity() != popBefore {
		t.Error("subtree popularity changed by rename")
	}
	if tr.TotalPopularity() != totalBefore {
		t.Error("total popularity changed by rename")
	}
	if err := tr.CheckPopularity(); err != nil {
		t.Fatal(err)
	}
	home, _ := tr.Lookup("/home")
	if home.TotalPopularity() >= totalBefore {
		t.Error("old parent aggregate not decremented")
	}
}

func TestRenameSameParentIsNameChange(t *testing.T) {
	tr := buildMutTree(t)
	a, _ := tr.Lookup("/home/a")
	home, _ := tr.Lookup("/home")
	if err := tr.Rename(a, home, "a2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Lookup("/home/a2/c.txt"); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckPopularity(); err != nil {
		t.Fatal(err)
	}
}

func TestRenameRejections(t *testing.T) {
	tr := buildMutTree(t)
	a, _ := tr.Lookup("/home/a")
	c, _ := tr.Lookup("/home/a/c.txt")
	vr, _ := tr.Lookup("/var")
	tool, _ := tr.Lookup("/usr/bin/tool")
	tests := []struct {
		name      string
		n, parent *Node
		newName   string
	}{
		{"nil node", nil, vr, "x"},
		{"nil parent", a, nil, "x"},
		{"root", tr.Root(), vr, "x"},
		{"file parent", a, tool, "x"},
		{"empty name", a, vr, ""},
		{"slash in name", a, vr, "x/y"},
		{"own subtree", a, a, "x"},
		{"own descendant file parent", a, c, "x"},
		{"existing name", a, vr, "log"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tr.Rename(tt.n, tt.parent, tt.newName); err == nil {
				t.Error("rename accepted")
			}
		})
	}
	if err := tr.CheckPopularity(); err != nil {
		t.Fatal(err)
	}
}

// TestRenameRefusesSlashName: a name holding '/' is refused as AddChild
// refuses it. Accepted, it made Path read one more component than the tree
// has and the tree's snapshot unreadable.
func TestRenameRefusesSlashName(t *testing.T) {
	tr := buildMutTree(t)
	c, _ := tr.Lookup("/home/a/c.txt")
	a, _ := tr.Lookup("/home/a")
	if err := tr.Rename(c, a, "a/b"); !errors.Is(err, ErrSlashName) {
		t.Fatalf("Rename to %q = %v, want ErrSlashName", "a/b", err)
	}
	if got := tr.Path(c); got != "/home/a/c.txt" {
		t.Errorf("refused rename moved the node to %s", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err != nil {
		t.Errorf("snapshot after the refused rename: %v", err)
	}
}

func TestDeleteSubtree(t *testing.T) {
	tr := buildMutTree(t)
	before := tr.Len()
	home, _ := tr.Lookup("/home")
	size := tr.SubtreeSize(home)
	removed, err := tr.Delete(home)
	if err != nil {
		t.Fatal(err)
	}
	if removed != size {
		t.Errorf("removed %d, want %d", removed, size)
	}
	if tr.Len() != before-size {
		t.Errorf("Len = %d, want %d", tr.Len(), before-size)
	}
	if _, err := tr.Lookup("/home"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted path resolves")
	}
	if tr.Node(home.ID()) != nil {
		t.Error("deleted node still addressable by ID")
	}
	if err := tr.CheckPopularity(); err != nil {
		t.Fatal(err)
	}
	// New nodes still get unique IDs after deletion.
	n, err := tr.AddFile("/fresh.txt")
	if err != nil {
		t.Fatal(err)
	}
	if int(n.ID()) < tr.Len() {
		_ = n // IDs never reused; just ensure no panic and lookup works
	}
	if _, err := tr.Lookup("/fresh.txt"); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRootRejected(t *testing.T) {
	tr := buildMutTree(t)
	if _, err := tr.Delete(tr.Root()); !errors.Is(err, ErrIsRoot) {
		t.Errorf("want ErrIsRoot, got %v", err)
	}
	if _, err := tr.Delete(nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
}

func TestSnapshotRoundTripAfterDeletes(t *testing.T) {
	tr := buildMutTree(t)
	vr, _ := tr.Lookup("/var")
	if _, err := tr.Delete(vr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), tr.Len())
	}
	for _, n := range tr.Nodes() {
		p := tr.Path(n)
		m, err := got.Lookup(p)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", p, err)
		}
		if m.SelfPopularity() != n.SelfPopularity() {
			t.Errorf("%q popularity mismatch", p)
		}
	}
}

// Property: random interleavings of adds, touches, renames and deletes keep
// the popularity invariant and path resolvability.
func TestMutationInvariants(t *testing.T) {
	prop := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := Build(BuildConfig{
			Nodes: 120, MaxDepth: 6, DirFanout: 2, FilesPerDir: 2, Seed: seed,
		})
		if err != nil {
			return false
		}
		for i := 0; i < int(ops); i++ {
			nodes := tr.Nodes()
			n := nodes[rng.Intn(len(nodes))]
			switch rng.Intn(4) {
			case 0:
				tr.Touch(n, int64(rng.Intn(20)))
			case 1:
				dirs := dirsOf(nodes)
				dst := dirs[rng.Intn(len(dirs))]
				_ = tr.Rename(n, dst, "r"+string(rune('a'+i%26))+string(rune('a'+rng.Intn(26))))
			case 2:
				if n != tr.Root() && tr.Len() > 10 {
					_, _ = tr.Delete(n)
				}
			case 3:
				dirs := dirsOf(nodes)
				dst := dirs[rng.Intn(len(dirs))]
				_, _ = tr.AddChild(dst, "n"+string(rune('a'+i%26))+string(rune('a'+rng.Intn(26))), KindFile)
			}
		}
		if tr.CheckPopularity() != nil {
			return false
		}
		// Every live node must resolve through its own path, with a
		// consistent depth.
		for _, n := range tr.Nodes() {
			got, err := tr.Lookup(tr.Path(n))
			if err != nil || got != n {
				return false
			}
			if n.Parent() != nil && n.Depth() != n.Parent().Depth()+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func dirsOf(nodes []*Node) []*Node {
	out := nodes[:0:0]
	for _, n := range nodes {
		if n.IsDir() {
			out = append(out, n)
		}
	}
	return out
}
