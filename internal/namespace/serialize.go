package namespace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"

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
		kind, name := n.Kind(), n.name
		if kind != KindDir && kind != KindFile {
			return fmt.Errorf("namespace: %q has unknown kind %v", t.Path(n), kind)
		}
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
// no nodes, a root that is not a directory, a node with no kind, a node under
// a file, two children of one directory with one name, or trailing bytes.
//
// The decode reads the nodes into one slab and counts each one's children,
// then links them, every directory's children carved from one slice
// (carve), as SlabOf's are.
func ReadSnapshot(r io.Reader) (*Tree, error) {
	data, err := readAll(r)
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
	slab := make([]Node, count)
	t := &Tree{nodes: make([]*Node, count), live: count}
	for i := range slab {
		var parent int
		var kind Kind
		n := &slab[i]
		if !s.Node(&parent, &kind, &n.name, &n.selfPop, &n.updateCost) {
			break
		}
		n.id, n.kind, n.version = int32(i), uint8(kind), 1
		switch {
		case i == 0 && kind != KindDir:
			return nil, fmt.Errorf("namespace: bad snapshot: the root is a %v", kind)
		case i == 0:
			n.name = "/"
		case kind == 0:
			return nil, fmt.Errorf("namespace: bad snapshot: node %d has no kind", i)
		case !slab[parent].IsDir():
			return nil, ErrNotDir
		default:
			n.parent = &slab[parent]
			n.parent.depth++
		}
		t.nodes[i] = n
	}
	if _, err := s.End(); err != nil || count == 0 {
		return nil, errors.New("namespace: bad snapshot: malformed, or no nodes")
	}
	carve(slab, count-1)
	for i := 1; i < count; i++ {
		if n := &slab[i]; Attach(n.parent, n.name, n) != n {
			return nil, errExists(n.parent, n.name)
		}
	}
	t.root = &slab[0]
	t.RecomputePopularity()
	return t, nil
}

// readAll reads r to the end, in one read at the file's size when r is a
// regular file.
func readAll(r io.Reader) ([]byte, error) {
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			// A read at the end needs MinRead bytes free to see io.EOF
			// without growing the buffer.
			b := bytes.NewBuffer(make([]byte, 0, fi.Size()+bytes.MinRead))
			_, err := b.ReadFrom(r)
			return b.Bytes(), err
		}
	}
	return io.ReadAll(r)
}
