package rootindex

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The reference model is the flat map[root]addr that the server and the
// client each kept before this type, with their scan code kept verbatim:
// refOwner is the prefix loop of server.ownerLocked and client.route,
// refClientChildRoots the whole-index pass of Client.Readdir/ReaddirPlus,
// refServerChildRoots the one of server.listLocked.

func refOwner(index map[string]string, path string) (addr string, global bool) {
	cur := path
	for {
		if a, ok := index[cur]; ok {
			return a, false
		}
		i := strings.LastIndexByte(cur, '/')
		if i <= 0 {
			return "", true
		}
		cur = cur[:i]
	}
}

func refClientChildRoots(index map[string]string, path string) []string {
	var out []string
	prefix := path + "/"
	if path == "/" {
		prefix = "/"
	}
	for root := range index {
		if !strings.HasPrefix(root, prefix) || root == path {
			continue
		}
		rest := root[len(prefix):]
		if rest == "" || strings.ContainsRune(rest, '/') {
			continue
		}
		out = append(out, root)
	}
	sort.Strings(out)
	return out
}

func parentPath(path string) string {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	if len(path) > 1 {
		return "/"
	}
	return ""
}

func refServerChildRoots(index map[string]string, path string) []string {
	var out []string
	for root := range index {
		if parentPath(root) != path {
			continue
		}
		out = append(out, root)
	}
	sort.Strings(out)
	return out
}

// universe is every path of depth 1 to 4 over three names, and "/": small
// enough that random roots nest, share parents, sit directly under "/" and
// coincide with the directories listed.
func universe() []string {
	paths := []string{"/"}
	level := []string{""}
	for depth := 0; depth < 4; depth++ {
		var next []string
		for _, p := range level {
			for _, name := range []string{"a", "b", "c"} {
				next = append(next, p+"/"+name)
			}
		}
		paths = append(paths, next...)
		level = next
	}
	return paths
}

func checkAgainstRef(t *testing.T, step string, ix *Index, ref map[string]string, paths []string) {
	t.Helper()
	if ix.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, reference holds %d", step, ix.Len(), len(ref))
	}
	for _, p := range paths {
		// Owner of the path itself and of something two levels below it,
		// which no root names.
		for _, q := range []string{p, strings.TrimSuffix(p, "/") + "/x/y"} {
			wantAddr, global := refOwner(ref, q)
			if addr, ok := ix.Owner(q); addr != wantAddr || ok == global {
				t.Fatalf("%s: Owner(%q) = %q,%v, reference %q,global=%v", step, q, addr, ok, wantAddr, global)
			}
		}
		wantAddr, wantOK := ref[p]
		if addr, ok := ix.Get(p); addr != wantAddr || ok != wantOK {
			t.Fatalf("%s: Get(%q) = %q,%v, reference %q,%v", step, p, addr, ok, wantAddr, wantOK)
		}
		client, server := refClientChildRoots(ref, p), refServerChildRoots(ref, p)
		if !slices.Equal(client, server) {
			t.Fatalf("%s: the two listing rules disagree on %q: client %v, server %v", step, p, client, server)
		}
		if got := ix.ChildRoots(p); !slices.Equal(got, client) {
			t.Fatalf("%s: ChildRoots(%q) = %v, reference %v", step, p, got, client)
		}
	}
	if got := ix.Map(); !maps.Equal(got, ref) {
		t.Fatalf("%s: Map = %v, reference %v", step, got, ref)
	}
}

// TestIndexMatchesFlatScans drives seeded New/Set/replace sequences and
// checks every read against the scans it replaced, after every step.
func TestIndexMatchesFlatScans(t *testing.T) {
	paths := universe()
	roots := paths[1:] // "/" is never a subtree root
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randomMap := func() map[string]string {
			m := map[string]string{}
			for n := rng.Intn(30); n > 0; n-- {
				m[roots[rng.Intn(len(roots))]] = fmt.Sprintf("mds-%d", rng.Intn(3))
			}
			return m
		}
		ref := map[string]string{}
		ix := New(nil)
		checkAgainstRef(t, "empty", ix, ref, paths)
		for step := 0; step < 60; step++ {
			var what string
			switch k := rng.Intn(10); {
			case k == 0: // a refresh installs a freshly decoded map
				fresh := randomMap()
				ref = map[string]string{}
				for root, addr := range fresh {
					ref[root] = addr
				}
				ix = New(fresh)
				what = "New"
			case k < 4 && len(ref) > 0: // an existing root moves
				known := ix.Map()
				keys := make([]string, 0, len(known))
				for root := range known {
					keys = append(keys, root)
				}
				sort.Strings(keys)
				root, addr := keys[rng.Intn(len(keys))], fmt.Sprintf("mds-%d", rng.Intn(3))
				ref[root] = addr
				ix.Set(root, addr)
				what = "Set existing " + root
			default: // a root appears (or, by chance, moves)
				root, addr := roots[rng.Intn(len(roots))], fmt.Sprintf("mds-%d", rng.Intn(3))
				ref[root] = addr
				ix.Set(root, addr)
				what = "Set " + root
			}
			checkAgainstRef(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, what), ix, ref, paths)
		}
	}
}

func TestOwnerLongestPrefixWins(t *testing.T) {
	ix := New(map[string]string{"/a": "srvA", "/a/b/c": "srvC"})
	tests := []struct {
		path string
		addr string
		ok   bool
	}{
		{"/a/b/c/d/file", "srvC", true},
		{"/a/b/c", "srvC", true},
		{"/a/b", "srvA", true},
		{"/a", "srvA", true},
		{"/ab", "", false},
		{"/other/path", "", false},
		{"/", "", false},
	}
	for _, tt := range tests {
		if addr, ok := ix.Owner(tt.path); addr != tt.addr || ok != tt.ok {
			t.Errorf("Owner(%q) = %q,%v want %q,%v", tt.path, addr, ok, tt.addr, tt.ok)
		}
	}
}

// TestReadsDoNotAllocate pins the read path: no lazy rebuild, no copy.
func TestReadsDoNotAllocate(t *testing.T) {
	owner := map[string]string{}
	for i := 0; i < 1322; i++ {
		owner[fmt.Sprintf("/g%d/r%d", i%40, i)] = "mds-0"
	}
	ix := New(owner)
	var addr string
	var roots []string
	if n := testing.AllocsPerRun(100, func() {
		addr, _ = ix.Owner("/g7/r47/dir/file")
		roots = ix.ChildRoots("/g7")
	}); n != 0 {
		t.Errorf("Owner+ChildRoots allocate %v times per call", n)
	}
	if addr != "mds-0" || len(roots) == 0 {
		t.Errorf("Owner = %q, ChildRoots = %v", addr, roots)
	}
}
