package namespace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestChildrenMatchReference runs seeded AddChild, Rename and Delete
// sequences over four directories whose fan-out crosses indexFanout both
// ways, with each directory's children also kept in a plain slice beside the
// tree. After every step Child, NumChildren and Children (order included)
// answer as the slice does, a directory holds a by-name index exactly when
// it has more than indexFanout children, and a name taken twice is refused
// with ErrExists on both sides of the line.
func TestChildrenMatchReference(t *testing.T) {
	names := make([]string, 2*indexFanout+8)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	var crossedUp, crossedDown, dupSmall, dupLarge bool
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		ref := map[*Node][]*Node{}
		var dirs []*Node
		for i := range 4 {
			d, err := tr.AddChild(tr.Root(), fmt.Sprintf("d%d", i), KindDir)
			if err != nil {
				t.Fatal(err)
			}
			dirs = append(dirs, d)
		}
		refChild := func(d *Node, name string) *Node {
			for _, c := range ref[d] {
				if c.name == name {
					return c
				}
			}
			return nil
		}
		for step := range 2000 {
			d := dirs[rng.Intn(len(dirs))]
			before := len(ref[d])
			switch op := rng.Intn(8); {
			case op < 4 || len(ref[d]) == 0: // add
				name := names[rng.Intn(len(names))]
				n, err := tr.AddChild(d, name, KindFile)
				if refChild(d, name) != nil {
					if !errors.Is(err, ErrExists) {
						t.Fatalf("seed %d step %d: AddChild of a taken name = %v, want ErrExists", seed, step, err)
					}
					dupSmall = dupSmall || before <= indexFanout
					dupLarge = dupLarge || before > indexFanout
					break
				}
				if err != nil {
					t.Fatalf("seed %d step %d: AddChild: %v", seed, step, err)
				}
				ref[d] = append(ref[d], n)
			case op < 6: // rename into some directory, maybe d itself
				n := ref[d][rng.Intn(len(ref[d]))]
				dst := dirs[rng.Intn(len(dirs))]
				name := names[rng.Intn(len(names))]
				err := tr.Rename(n, dst, name)
				if c := refChild(dst, name); c != nil && c != n {
					if !errors.Is(err, ErrExists) {
						t.Fatalf("seed %d step %d: Rename onto a taken name = %v, want ErrExists", seed, step, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("seed %d step %d: Rename: %v", seed, step, err)
				}
				ref[d] = slices.DeleteFunc(ref[d], func(c *Node) bool { return c == n })
				ref[dst] = append(ref[dst], n)
			default: // delete
				n := ref[d][rng.Intn(len(ref[d]))]
				if _, err := tr.Delete(n); err != nil {
					t.Fatalf("seed %d step %d: Delete: %v", seed, step, err)
				}
				ref[d] = slices.DeleteFunc(ref[d], func(c *Node) bool { return c == n })
			}
			crossedUp = crossedUp || before == indexFanout && len(ref[d]) > indexFanout
			crossedDown = crossedDown || before > indexFanout && len(ref[d]) <= indexFanout
			for _, dir := range dirs {
				checkChildren(t, dir, ref[dir], names)
			}
		}
	}
	if !crossedUp || !crossedDown || !dupSmall || !dupLarge {
		t.Errorf("the sequences never crossed indexFanout up (%v) or down (%v), or refused a duplicate below (%v) or above (%v) it",
			crossedUp, crossedDown, dupSmall, dupLarge)
	}
}

// checkChildren fails t unless d's children are want, in order, by every
// accessor, and d keeps a by-name index exactly when it is past indexFanout.
func checkChildren(t *testing.T, d *Node, want []*Node, names []string) {
	t.Helper()
	if d.NumChildren() != len(want) || !slices.Equal(d.Children(), want) {
		t.Fatalf("%s has children %v, want %v", d.name, nodeNames(d.Children()), nodeNames(want))
	}
	var walked []*Node
	d.EachChild(func(c *Node) bool {
		walked = append(walked, c)
		return true
	})
	if !slices.Equal(walked, want) {
		t.Fatalf("%s walks children %v, want %v", d.name, nodeNames(walked), nodeNames(want))
	}
	for _, name := range names {
		var w *Node
		for _, c := range want {
			if c.name == name {
				w = c
			}
		}
		if got := d.Child(name); got != w {
			t.Fatalf("%s: Child(%q) = %v, want %v", d.name, name, got, w)
		}
	}
	if indexed := d.byName != nil; indexed != (len(want) > indexFanout) {
		t.Fatalf("%s has %d children and a by-name index: %v", d.name, len(want), indexed)
	}
}

func nodeNames(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.name
	}
	return out
}

// TestSnapshotFanouts reads back a directory of 0, 1, indexFanout,
// indexFanout+1 and 100 children beside a deeper one: the snapshot written
// again is the same bytes, and the directory read back answers Child for
// every name, with a by-name index only past indexFanout.
func TestSnapshotFanouts(t *testing.T) {
	for _, fanout := range []int{0, 1, indexFanout, indexFanout + 1, 100} {
		t.Run(fmt.Sprint(fanout), func(t *testing.T) {
			tr := NewTree()
			d, err := tr.MkdirAll("/a/d")
			if err != nil {
				t.Fatal(err)
			}
			for i := range fanout {
				n, err := tr.AddChild(d, fmt.Sprintf("f%03d", i), KindFile)
				if err != nil {
					t.Fatal(err)
				}
				tr.Touch(n, int64(i))
			}
			if _, err := tr.AddFile("/b/g"); err != nil {
				t.Fatal(err)
			}
			var first bytes.Buffer
			if err := tr.WriteSnapshot(&first); err != nil {
				t.Fatal(err)
			}
			want := bytes.Clone(first.Bytes())
			got, err := ReadSnapshot(&first)
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := got.WriteSnapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), want) {
				t.Fatal("the snapshot read and written again changed")
			}
			gd, err := got.Lookup("/a/d")
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, c := range d.Children() {
				names = append(names, c.name)
			}
			var wantKids []*Node
			for _, name := range names {
				wantKids = append(wantKids, gd.Child(name))
			}
			checkChildren(t, gd, wantKids, names)
			for i, c := range gd.Children() {
				if c.name != names[i] || c.selfPop != int64(i) {
					t.Fatalf("child %d read back as %s with popularity %d", i, c.name, c.selfPop)
				}
			}
		})
	}
}

// TestCarvedChildrenGrowApart: a read carves every directory's children from
// one slice, each at its exact capacity. Growing one directory by AddChild,
// or renaming a child out of it and adding one back, leaves the children of
// the directories carved beside it as they were.
func TestCarvedChildrenGrowApart(t *testing.T) {
	tr := NewTree()
	for _, p := range []string{"/a/1", "/a/2", "/b/1", "/b/2", "/b/3", "/c/1", "/c/2"} {
		if _, err := tr.AddFile(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(p string) *Node {
		n, err := got.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b, c := lookup("/a"), lookup("/b"), lookup("/c")
	wantA, wantC := a.Children(), c.Children()
	if _, err := got.AddChild(b, "4", KindFile); err != nil {
		t.Fatal(err)
	}
	if err := got.Rename(lookup("/b/1"), a, "moved"); err != nil {
		t.Fatal(err)
	}
	wantA = append(wantA, lookup("/a/moved"))
	if _, err := got.AddChild(b, "5", KindFile); err != nil {
		t.Fatal(err)
	}
	if _, err := got.AddChild(a, "3", KindFile); err != nil {
		t.Fatal(err)
	}
	wantA = append(wantA, lookup("/a/3"))
	if !slices.Equal(a.Children(), wantA) || !slices.Equal(c.Children(), wantC) {
		t.Fatalf("neighbours of /b read %v and %v, want %v and %v",
			nodeNames(a.Children()), nodeNames(c.Children()), nodeNames(wantA), nodeNames(wantC))
	}
	if names := nodeNames(b.Children()); !slices.Equal(names, []string{"2", "3", "4", "5"}) {
		t.Fatalf("/b has children %v", names)
	}
}
