package client

import (
	"fmt"
	"reflect"
	"testing"

	"d2tree/internal/rootindex"
	"d2tree/internal/wire"
)

// indexOf builds a client-side index of roots subtree roots, none of them
// under /r/target, plus the extra ones given.
func indexOf(roots int, extra ...string) *rootindex.Index {
	owner := map[string]string{"/r": "mds-0"}
	for i := 1; i < roots; i++ {
		owner[fmt.Sprintf("/g%d/r%d", i%40, i)] = "mds-1"
	}
	for _, root := range extra {
		owner[root] = "mds-1"
	}
	return rootindex.New(owner)
}

// cannedListing is what an MDS answers for /r/target: eight files, sorted.
func cannedListing() []wire.Entry {
	entries := make([]wire.Entry, 8)
	for i := range entries {
		entries[i] = wire.Entry{Path: fmt.Sprintf("/r/target/f%d", i), Kind: wire.EntryFile, Version: 1}
	}
	return entries
}

func TestMergeChildRoots(t *testing.T) {
	placeholder := func(p string) wire.Entry { return wire.Entry{Path: p, Kind: wire.EntryDir} }
	// Roots before, between and after the served entries; f3 is a root the
	// response already carries, with its real body.
	c := &Client{index: indexOf(50, "/r/target/a", "/r/target/f3", "/r/target/f35", "/r/target/z", "/r/target/z/deeper")}
	served := cannedListing()
	got := c.mergeChildRoots("/r/target", cannedListing())
	want := []wire.Entry{placeholder("/r/target/a")}
	want = append(want, served[:4]...)
	want = append(want, placeholder("/r/target/f35"))
	want = append(want, served[4:]...)
	want = append(want, placeholder("/r/target/z"))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged listing = %+v\nwant %+v", got, want)
	}
	if got := c.mergeChildRoots("/r/target", nil); !reflect.DeepEqual(got, []wire.Entry{
		placeholder("/r/target/a"), placeholder("/r/target/f3"), placeholder("/r/target/f35"), placeholder("/r/target/z"),
	}) {
		t.Errorf("merge into an empty listing = %+v", got)
	}
}

// TestMergeWithoutChildRootsDoesNotAllocate: a directory with no subtree
// root under it, which is nearly all of them, costs nothing beyond the
// response it was handed.
func TestMergeWithoutChildRootsDoesNotAllocate(t *testing.T) {
	c := &Client{index: indexOf(1322)}
	served := cannedListing()
	var got []wire.Entry
	if n := testing.AllocsPerRun(100, func() { got = c.mergeChildRoots("/r/target", served) }); n != 0 {
		t.Errorf("merge allocates %v times per listing", n)
	}
	if len(got) != len(served) {
		t.Errorf("merge changed a listing with no child roots: %+v", got)
	}
}

var mergeSink []wire.Entry

// BenchmarkClientReaddirPlusIndexSize is the client-side twin of the
// server's BenchmarkReaddirPlusIndexSize: the merge ReaddirPlus runs on
// every response, against a canned 8-entry listing, while the cached index
// grows. It must be flat.
func BenchmarkClientReaddirPlusIndexSize(b *testing.B) {
	for _, roots := range []int{1, 1322, 10000} {
		b.Run(fmt.Sprintf("roots=%d", roots), func(b *testing.B) {
			c := &Client{index: indexOf(roots)}
			served := cannedListing()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mergeSink = c.mergeChildRoots("/r/target", served)
			}
		})
	}
}
