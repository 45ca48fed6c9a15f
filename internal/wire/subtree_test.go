package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// seededSubtrees draws n subtrees from seed: every node kind, parents at
// every distance, names with every byte a name may hold, and attributes at
// both ends of their ranges.
func seededSubtrees(seed int64, n int) []Subtree {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "dir", "file.txt", "nul\x00\xff", "漢字", "a-name-of-some-length-" + strconv.Itoa(n)}
	ints := []int64{0, 1, -1, 127, 128, -300, 1 << 40, -(1 << 62), 1<<63 - 1}
	ts := make([]Subtree, n)
	for k := range ts {
		t := &ts[k]
		t.Path = "/"
		if k%3 > 0 {
			t.Path = "/r" + strconv.Itoa(k) + "/s"
		}
		if rng.Intn(8) == 0 {
			continue
		}
		t.Nodes = make([]SubtreeNode, 1+rng.Intn(40))
		for i := range t.Nodes {
			nd := &t.Nodes[i]
			nd.Kind = EntryKind(rng.Intn(3))
			if i > 0 {
				nd.Parent = int32(rng.Intn(i))
				nd.Name = names[rng.Intn(len(names))] + strconv.Itoa(i)
			}
			if nd.Kind != 0 {
				nd.Size = ints[rng.Intn(len(ints))]
				nd.Mode = uint32(rng.Int63n(1 << 32))
				nd.Version = ints[rng.Intn(len(ints))]
			}
		}
	}
	return ts
}

// TestSubtreeEncodingGolden: seeded subtrees encode to the bytes they did
// when install_trees records were first written, so every record on disk
// still replays, and decode back to themselves.
func TestSubtreeEncodingGolden(t *testing.T) {
	const want = "21d7cc9a66a7842f49cf408cc920008f34e1773f4f8646bbb91e87500f19e385"
	ts := seededSubtrees(43, 300)
	b := AppendSubtrees(nil, ts)
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%d subtrees encode to %d bytes with sha256 %s, want %s", len(ts), len(b), got, want)
	}
	back, err := DecodeSubtrees(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ts) {
		t.Error("seeded subtrees do not decode back to themselves")
	}
}
