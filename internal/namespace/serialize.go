package namespace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A snapshot (format v2) is binary and read in one pass:
//
//	magic       "d2tree/namespace/v2\n"
//	count       uvarint: nodes, the root included
//	root        zigzag varints selfPop, updateCost
//	count-1 ×   uvarint parent (its position in the stream, root = 0),
//	            kind byte, uvarint name length, name bytes,
//	            zigzag varints selfPop, updateCost
//
// Records come in creation order, so a parent precedes its children and a
// node's position in the stream is its NodeID in the tree read back. Every
// varint is in its shortest form, which makes the encoding of a tree unique:
// a snapshot read and written again is the same bytes.
const snapshotMagic = "d2tree/namespace/v2\n"

// snapshotV1 starts every snapshot the NDJSON format v1 wrote.
const snapshotV1 = `{"format":"d2tree/namespace/v1"`

// minRecord is the fewest bytes a non-root record takes: one each for the
// parent, the kind, the name length, a one-byte name and the two counters.
const minRecord = 6

// ErrSnapshotV1 is returned for a snapshot in the retired NDJSON format.
var ErrSnapshotV1 = errors.New("namespace: snapshot is format v1 (NDJSON), which is no longer read; regenerate it with tracegen -tree")

// WriteSnapshot serialises the tree in snapshot format v2: the root, then
// every other live node in creation order. A node renamed under a directory
// created after it is written right after that directory, so parents always
// precede children.
func (t *Tree) WriteSnapshot(w io.Writer) error {
	buf := make([]byte, 0, len(snapshotMagic)+16*t.live)
	buf = append(buf, snapshotMagic...)
	buf = binary.AppendUvarint(buf, uint64(t.live))
	buf = binary.AppendVarint(buf, t.root.selfPop)
	buf = binary.AppendVarint(buf, t.root.updateCost)
	// pos[id] is a written node's position in the stream; 0 is the root's
	// and, for any other node, not written yet.
	pos := make([]int, len(t.nodes))
	next := 1
	var put func(n *Node) error
	put = func(n *Node) error {
		if n.parent.parent != nil && pos[n.parent.id] == 0 {
			if err := put(n.parent); err != nil {
				return err
			}
		}
		if n.kind != KindDir && n.kind != KindFile {
			return fmt.Errorf("namespace: %q has unknown kind %v", t.Path(n), n.kind)
		}
		buf = binary.AppendUvarint(buf, uint64(pos[n.parent.id]))
		buf = append(buf, byte(n.kind))
		buf = binary.AppendUvarint(buf, uint64(len(n.name)))
		buf = append(buf, n.name...)
		buf = binary.AppendVarint(buf, n.selfPop)
		buf = binary.AppendVarint(buf, n.updateCost)
		pos[n.id] = next
		next++
		return nil
	}
	for _, n := range t.nodes {
		if n == nil || n.parent == nil || pos[n.id] != 0 {
			continue
		}
		if err := put(n); err != nil {
			return err
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("namespace: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot reconstructs a tree written by WriteSnapshot, including
// popularity aggregates. It reads r to the end and refuses anything but one
// well-formed v2 snapshot: a count or length the remaining bytes cannot
// hold, a varint longer than its shortest form, an unknown kind, a parent
// not yet read, a name AddChild would refuse, or trailing bytes.
func ReadSnapshot(r io.Reader) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("namespace: read snapshot: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		if bytes.HasPrefix(data, []byte(snapshotV1)) {
			return nil, ErrSnapshotV1
		}
		return nil, errors.New("namespace: not a namespace snapshot (no v2 magic)")
	}
	// One copy of the whole stream: every name is a substring of it.
	d := &snapDecoder{s: string(data[len(snapshotMagic):])}
	count := d.uvarint()
	switch {
	case d.err != nil:
	case count == 0:
		d.fail("node count is 0")
	case count-1 > uint64(len(d.s)/minRecord):
		d.fail(fmt.Sprintf("node count %d does not fit in %d bytes", count, len(d.s)))
	}
	if d.err != nil {
		return nil, d.err
	}
	t := NewTree()
	t.root.selfPop, t.root.updateCost = d.varint(), d.varint()
	t.nodes = append(make([]*Node, 0, count), t.root)
	slab := make([]Node, count-1)
	for i := range slab {
		parent := d.uvarint()
		kind := Kind(d.byte())
		name := d.str()
		selfPop, updateCost := d.varint(), d.varint()
		switch {
		case d.err != nil:
		case parent > uint64(i):
			d.fail(fmt.Sprintf("node %d names parent %d, not read yet", i+1, parent))
		case kind != KindDir && kind != KindFile:
			d.fail(fmt.Sprintf("node %d has unknown kind %d", i+1, kind))
		}
		if d.err != nil {
			return nil, d.err
		}
		n := &slab[i]
		if err := t.link(t.nodes[parent], n, name, kind); err != nil {
			return nil, err
		}
		n.selfPop, n.updateCost = selfPop, updateCost
	}
	switch {
	case d.err != nil: // a root-only snapshot cut inside the root's counters
		return nil, d.err
	case d.off < len(d.s):
		return nil, fmt.Errorf("namespace: snapshot has %d trailing bytes", len(d.s)-d.off)
	}
	t.RecomputePopularity()
	return t, nil
}

// snapDecoder reads a snapshot's fields off s. The first failure sticks:
// later reads return zero values and leave err as it is.
type snapDecoder struct {
	s   string
	off int
	err error
}

func (d *snapDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("namespace: bad snapshot at byte %d: %s", len(snapshotMagic)+d.off, msg)
	}
}

// uvarint reads an unsigned varint in its shortest form.
func (d *snapDecoder) uvarint() uint64 {
	var x uint64
	for i, shift := 0, uint(0); d.err == nil; i, shift = i+1, shift+7 {
		if d.off >= len(d.s) {
			d.fail("truncated")
			break
		}
		b := d.s[d.off]
		d.off++
		switch {
		case i == binary.MaxVarintLen64-1 && b > 1:
			d.fail("varint overflows 64 bits")
		case b == 0 && i > 0:
			d.fail("varint longer than its shortest form")
		case b < 0x80:
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
	}
	return 0
}

// varint reads a zigzag-encoded signed varint.
func (d *snapDecoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (d *snapDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.s) {
		d.fail("truncated")
		return 0
	}
	b := d.s[d.off]
	d.off++
	return b
}

// str reads a uvarint length and that many bytes.
func (d *snapDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.s)-d.off) {
		d.fail(fmt.Sprintf("name of %d bytes with %d left", n, len(d.s)-d.off))
		return ""
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}
