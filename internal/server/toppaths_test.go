package server

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// topPathsBySort is how topPaths chose the hot paths before it kept a heap,
// kept verbatim as the reference: sort every entry, take the first k.
func topPathsBySort(counts map[string]int64, k int) map[string]int64 {
	if len(counts) <= k {
		return counts
	}
	type kv struct {
		path  string
		count int64
	}
	all := make([]kv, 0, len(counts))
	for p, c := range counts {
		all = append(all, kv{p, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].path < all[j].path
	})
	out := make(map[string]int64, k)
	for _, e := range all[:k] {
		out[e.path] = e.count
	}
	return out
}

// TestTopPathsMatchesSort: over seeded maps, heavy with ties and from below
// k to many times k, the heap picks exactly what sorting picked.
func TestTopPathsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 500; i++ {
		n := rng.Intn(400)
		k := []int{1, 2, 128, n, n + 1, 1 + rng.Intn(n+1)}[rng.Intn(6)]
		counts := make(map[string]int64, n)
		for j := 0; j < n; j++ {
			// Few distinct counts, so most entries tie with others.
			counts["/d"+strconv.Itoa(rng.Intn(50))+"/f"+strconv.Itoa(j)] = int64(rng.Intn(8))
		}
		got, want := topPaths(counts, k), topPathsBySort(counts, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("map %d (%d paths, k=%d): heap chose %v, sort chose %v", i, len(counts), k, got, want)
		}
	}
}
