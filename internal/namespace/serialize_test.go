package namespace_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"d2tree/internal/namespace"
	"d2tree/internal/trace"
)

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

// FuzzReadSnapshot: whatever the bytes, ReadSnapshot returns without
// panicking, allocates in proportion to the input rather than to a count the
// input declares, and accepts only what WriteSnapshot would write: an
// accepted input re-encodes byte for byte.
func FuzzReadSnapshot(f *testing.F) {
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
	f.Add(buf.Bytes())
	f.Add([]byte("d2tree/namespace/v2\n\x01\x00\x00"))
	f.Add([]byte("d2tree/namespace/v2\n\x01\x00"))
	f.Add([]byte("d2tree/namespace/v2\n\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x00\x00"))
	f.Add([]byte(`{"format":"d2tree/namespace/v1","nodes":1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tree, err := namespace.ReadSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20+512*uint64(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tree.WriteSnapshot(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %q, re-encodes as %q", data, out.Bytes())
		}
	})
}
