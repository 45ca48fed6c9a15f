package namespace

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"d2tree/internal/wire"
)

// A snapshot (format v3) is binary and read in one pass:
//
//	magic  "d2tree/namespace/v3\n"
//	tree   the tree shape a wire.Subtree also has (wire.EncodeShape): the
//	       node count, then each node in creation order, the root as its
//	       kind and every other node as the distance back to its parent,
//	       its kind and its name, each followed by its zigzag varints
//	       selfPop and updateCost
//
// A parent precedes its children, and a node's position in the stream is its
// NodeID in the tree read back. Every varint is in its shortest form, which
// makes the encoding of a tree unique: a snapshot read and written again is
// the same bytes.
const snapshotMagic = "d2tree/namespace/v3\n"

// How the retired formats v1 (NDJSON) and v2 open, so ReadSnapshot can say
// to regenerate them.
const (
	snapshotV1 = `{"format":"d2tree/namespace/v1"`
	snapshotV2 = "d2tree/namespace/v2\n"
)

// Errors returned for a snapshot in a retired format.
var (
	ErrSnapshotV1 = errors.New("namespace: snapshot is format v1 (NDJSON), which is no longer read; regenerate it with tracegen -tree")
	ErrSnapshotV2 = errors.New("namespace: snapshot is format v2, which is no longer read; regenerate it with tracegen -tree")
)

// WriteSnapshot serialises the tree in snapshot format v3: the root, then
// every other live node in creation order. A node renamed under a directory
// created after it is written right after that directory, so parents always
// precede children.
func (t *Tree) WriteSnapshot(w io.Writer) error {
	buf := make([]byte, 0, len(snapshotMagic)+16*t.live)
	s := wire.EncodeShape(append(buf, snapshotMagic...), t.live)
	// pos[id] is a written node's position in the stream; 0 is the root's
	// and, for any other node, not written yet.
	pos := make([]int, len(t.nodes))
	next := 0
	var put func(n *Node) error
	put = func(n *Node) error {
		parent := 0
		if p := n.parent; p != nil {
			if p.parent != nil && pos[p.id] == 0 {
				if err := put(p); err != nil {
					return err
				}
			}
			parent = pos[p.id]
		}
		if n.kind != KindDir && n.kind != KindFile {
			return fmt.Errorf("namespace: %q has unknown kind %v", t.Path(n), n.kind)
		}
		kind, name := wire.EntryKind(n.kind), n.name
		s.Node(&parent, &kind, &name, &n.selfPop, &n.updateCost)
		pos[n.id] = next
		next++
		return nil
	}
	for _, n := range t.nodes {
		if n == nil || n.parent != nil && pos[n.id] != 0 {
			continue
		}
		if err := put(n); err != nil {
			return err
		}
	}
	data, _ := s.End()
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("namespace: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot reconstructs a tree written by WriteSnapshot, including
// popularity aggregates. It reads r to the end and refuses anything but one
// well-formed v3 snapshot: whatever the tree shape refuses (wire.DecodeShape),
// no nodes, a root that is not a directory, a node with no kind, a name
// AddChild would refuse, or trailing bytes.
func ReadSnapshot(r io.Reader) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("namespace: read snapshot: %w", err)
	}
	switch {
	case bytes.HasPrefix(data, []byte(snapshotV1)):
		return nil, ErrSnapshotV1
	case bytes.HasPrefix(data, []byte(snapshotV2)):
		return nil, ErrSnapshotV2
	case !bytes.HasPrefix(data, []byte(snapshotMagic)):
		return nil, errors.New("namespace: not a namespace snapshot (no v3 magic)")
	}
	s, count := wire.DecodeShape(data[len(snapshotMagic):], 2) // selfPop, updateCost
	t := NewTree()
	t.nodes = append(make([]*Node, 0, count), t.root)
	slab := make([]Node, max(count-1, 0))
	for i := 0; i < count; i++ {
		var parent int
		var kind wire.EntryKind
		var name string
		var selfPop, updateCost int64
		if !s.Node(&parent, &kind, &name, &selfPop, &updateCost) {
			break
		}
		n := t.root
		switch {
		case i == 0 && Kind(kind) != KindDir:
			return nil, fmt.Errorf("namespace: bad snapshot: the root is a %v", Kind(kind))
		case i > 0 && kind == 0:
			return nil, fmt.Errorf("namespace: bad snapshot: node %d has no kind", i)
		case i > 0:
			n = &slab[i-1]
			if err := t.link(t.nodes[parent], n, name, Kind(kind)); err != nil {
				return nil, err
			}
		}
		n.selfPop, n.updateCost = selfPop, updateCost
	}
	if _, err := s.End(); err != nil || count == 0 {
		return nil, errors.New("namespace: bad snapshot: malformed, or no nodes")
	}
	t.RecomputePopularity()
	return t, nil
}
