package namespace_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"d2tree/internal/namespace"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// magic opens every snapshot WriteSnapshot writes.
const magic = "d2tree/namespace/v3\n"

// TestSnapshotRoundTripLMBE writes the namespace the benchmark boots from
// (20k-node LMBE, 200k popularity events, seed 1), reads it back and writes
// it again: the bytes repeat, every node keeps its ID, path, kind and
// counters, and the file stays under 250 KB.
func TestSnapshotRoundTripLMBE(t *testing.T) {
	w, err := trace.BuildWorkload(trace.LMBE().Scale(20000), 200000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Tree.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 250_000 {
		t.Errorf("snapshot of %d nodes is %d bytes, want <= 250 KB", w.Tree.Len(), buf.Len())
	}
	first := bytes.Clone(buf.Bytes())
	got, err := namespace.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.Tree.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), w.Tree.Len())
	}
	for _, n := range w.Tree.Nodes() {
		m := got.Node(n.ID())
		if m == nil || got.Path(m) != w.Tree.Path(n) || m.Kind() != n.Kind() ||
			m.SelfPopularity() != n.SelfPopularity() || m.TotalPopularity() != n.TotalPopularity() ||
			m.UpdateCost() != n.UpdateCost() {
			t.Fatalf("node %d (%s) differs after the round trip", n.ID(), w.Tree.Path(n))
		}
	}
	var again bytes.Buffer
	if err := got.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), first) {
		t.Error("a snapshot read and written again changed")
	}
}

// TestSnapshotRenamedUnderNewerDirectory: a rename can put a node under a
// directory created after it. The writer puts that directory first, so the
// snapshot still reads back.
func TestSnapshotRenamedUnderNewerDirectory(t *testing.T) {
	tr := namespace.NewTree()
	a, err := tr.MkdirAll("/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddFile("/a/f"); err != nil {
		t.Fatal(err)
	}
	c, err := tr.MkdirAll("/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Rename(a, c, "a2"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := namespace.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), tr.Len())
	}
	for _, n := range tr.Nodes() {
		if m, err := got.Lookup(tr.Path(n)); err != nil || m.Kind() != n.Kind() {
			t.Errorf("%s: %v", tr.Path(n), err)
		}
	}
}

func TestReadSnapshotRefusesV1(t *testing.T) {
	v1 := `{"format":"d2tree/namespace/v1","nodes":2}` + "\n" +
		`{"id":1,"parent":0,"name":"a","kind":1}` + "\n"
	_, err := namespace.ReadSnapshot(strings.NewReader(v1))
	if !errors.Is(err, namespace.ErrSnapshotV1) {
		t.Fatalf("ReadSnapshot(v1) = %v, want ErrSnapshotV1", err)
	}
	for _, want := range []string{"v1", "tracegen -tree"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// FuzzTreeShape fuzzes the one tree shape both of its users decode: the
// bytes after the magic of a namespace snapshot, and a list of wire.Subtrees
// (joins, installs, install records). Whatever the bytes, neither decode
// panics or allocates in proportion to a count the input declares rather than
// to the input. What the wire accepts is a tree AddChild could have built,
// every parent before its node and every name non-empty and free of '/',
// under an absolute path. What either accepts encodes back to the bytes it
// was read from.
func FuzzTreeShape(f *testing.F) {
	tr := namespace.NewTree()
	for _, p := range []string{"/d/x", "/d/y", "/e/f/g"} {
		n, err := tr.AddFile(p)
		if err != nil {
			f.Fatal(err)
		}
		tr.Touch(n, 300)
	}
	d, _ := tr.Lookup("/d")
	tr.Touch(d, -5)
	tr.SetUpdateCost(d, 7)
	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.TrimPrefix(buf.Bytes(), []byte(magic)))
	f.Add([]byte{1, 2, 0, 0})                                                    // a root alone
	f.Add([]byte{1, 2, 0})                                                       // cut inside the root
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 2, 0, 0}) // a count the input cannot hold
	f.Add([]byte{2, 2, 0, 0, 1, 0, 1, 'x', 0, 0})                                // a node with no kind
	f.Add([]byte{3, 2, 0, 0, 1, 4, 1, 'x', 0, 0, 2, 4, 1, 'x', 0, 0})            // a name twice under one parent
	for _, ts := range [][]wire.Subtree{
		{{}},
		{{Path: "/r"}},
		{{Path: "/", Nodes: []wire.SubtreeNode{
			{Kind: wire.EntryDir, Version: 1},
			{Kind: wire.EntryDir, Name: "a", Version: 1},
			{Parent: 1, Kind: wire.EntryFile, Name: "x", Size: 7, Mode: 0o644, Version: 3},
			{Kind: wire.EntryFile, Name: "b", Version: 1},
		}}},
		{{Path: "/r/s", Nodes: []wire.SubtreeNode{{}, {Name: "held-by-no-entry"}, {Parent: 1, Kind: wire.EntryFile, Name: "f", Version: 2}}}},
	} {
		f.Add(wire.AppendSubtrees(nil, ts))
	}
	f.Add([]byte{1, 2, '/', 'r', 2, 1, 0, 0, 2, 1, 2, 1, '/', 0, 0, 2})     // a name with '/'
	f.Add([]byte{1, 2, '/', 'r', 2, 1, 0, 0, 2, 2, 2, 1, 'x', 0, 0, 2})     // a parent before the root
	f.Add([]byte{1, 2, '/', 'r', 2, 1, 0, 0, 2, 0, 2, 1, 'x', 0, 0, 2})     // a node its own parent
	f.Add([]byte{1, 1, 'r', 1, 1, 0, 0, 2})                                 // a relative path
	f.Add([]byte{1, 2, '/', 'r', 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 0, 0, 2}) // a count the input cannot hold
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tree, err := namespace.ReadSnapshot(bytes.NewReader(append([]byte(magic), data...)))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20+512*uint64(len(data)) {
			t.Fatalf("reading a %d-byte snapshot allocated %d", len(data), alloc)
		}
		if err == nil {
			var out bytes.Buffer
			if err := tree.WriteSnapshot(&out); err != nil {
				t.Fatal(err)
			}
			if again := out.Bytes()[len(magic):]; !bytes.Equal(again, data) {
				t.Fatalf("accepted snapshot %x, re-encodes as %x", data, again)
			}
		}

		runtime.ReadMemStats(&before)
		ts, err := wire.DecodeSubtrees(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10+32*uint64(len(data)) {
			t.Fatalf("decoding %d bytes of subtrees allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		for _, st := range ts {
			if len(st.Nodes) > 0 && !strings.HasPrefix(st.Path, "/") {
				t.Fatalf("accepted nodes under the relative path %q", st.Path)
			}
			for i, n := range st.Nodes[min(1, len(st.Nodes)):] {
				if int(n.Parent) > i || n.Name == "" || strings.Contains(n.Name, "/") {
					t.Fatalf("accepted node %d with parent %d and name %q", i+1, n.Parent, n.Name)
				}
			}
		}
		if again := wire.AppendSubtrees(nil, ts); !bytes.Equal(again, data) {
			t.Fatalf("accepted subtrees %x, re-encode as %x", data, again)
		}
	})
}

func TestReadSnapshotRefusesV2(t *testing.T) {
	_, err := namespace.ReadSnapshot(strings.NewReader("d2tree/namespace/v2\n\x01\x00\x00"))
	if !errors.Is(err, namespace.ErrSnapshotV2) {
		t.Fatalf("ReadSnapshot(v2) = %v, want ErrSnapshotV2", err)
	}
	for _, want := range []string{"v2", "tracegen -tree"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
