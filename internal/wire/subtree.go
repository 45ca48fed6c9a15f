package wire

import (
	"slices"
	"strings"
)

// Subtree is a subtree on the move, as a tree: the root's path, then its
// nodes, each named relative to its parent. Nodes[0] is the root itself
// (Parent 0, no Name) and every other node comes after its parent (the
// senders write pre-order), so a node's path is its parent's, "/" and its
// name (no second "/" under the root "/"), and a receiver builds the paths
// and links the nodes in one pass by index.
//
// The encoding is Path, the node count, the root's kind, size, mode and
// version, and for every other node the distance back to its parent (at
// least 1, at most its own index), kind, name, size, mode and version. A
// decoder refuses a node whose parent does not precede it, a name that
// AddChild would refuse (empty or holding a '/'), a kind that is neither
// EntryDir, EntryFile nor 0, and nodes under a Path that is not absolute.
type Subtree struct {
	Path  string        `json:"path"`
	Nodes []SubtreeNode `json:"nodes,omitempty"`
}

// SubtreeNode is one node of a Subtree. Kind 0 is a path that holds no
// entry: it is shipped only to link the entries beneath it (a directory the
// sending MDS holds no body for) and its attributes are zero.
type SubtreeNode struct {
	Parent  int       `json:"parent"`
	Kind    EntryKind `json:"kind"`
	Name    string    `json:"name"`
	Size    int64     `json:"size,omitempty"`
	Mode    uint32    `json:"mode,omitempty"`
	Version int64     `json:"version"`
}

// encodedSize is about what m encodes to: a few bytes of numbers beside
// each name. Encoders grow their buffer by it once rather than field by
// field.
func (m *Subtree) encodedSize() int {
	size := len(m.Path) + 2
	for i := range m.Nodes {
		size += len(m.Nodes[i].Name) + 8
	}
	return size
}

func (m *Subtree) code(c *codec) {
	if !c.dec {
		c.b = slices.Grow(c.b, m.encodedSize())
	}
	c.str(&m.Path)
	count := c.count(len(m.Nodes), subtreeNodeMin)
	if c.dec {
		// Encoding writes nothing: a journal flush encodes a subtree that
		// the install applying it reads at the same time.
		if m.Nodes = sized(c, m.Nodes, count); count > 0 && (m.Path == "" || m.Path[0] != '/') {
			c.fail()
			return
		}
	}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if i > 0 {
			up := uint64(i - n.Parent)
			c.u64(&up)
			if c.dec {
				if up == 0 || up > uint64(i) {
					c.fail()
					return
				}
				n.Parent = i - int(up)
			}
		}
		c.integer((*int)(&n.Kind))
		if i > 0 {
			c.str(&n.Name)
		}
		c.i64(&n.Size)
		c.u32(&n.Mode)
		c.i64(&n.Version)
		if c.dec && (n.Kind < 0 || n.Kind > EntryFile || i > 0 && !validName(n.Name)) {
			c.fail()
			return
		}
	}
}

// validName reports whether AddChild would take name: it is not empty and
// holds no '/'.
func validName(name string) bool {
	return name != "" && strings.IndexByte(name, '/') < 0
}

// AppendSubtrees appends ts as a JoinResponse carries its Trees: their
// count, then each subtree's encoding.
func AppendSubtrees(b []byte, ts []Subtree) []byte {
	c := codec{b: b}
	c.subtrees(&ts)
	return c.b
}

// DecodeSubtrees decodes what AppendSubtrees wrote, refusing what a
// JoinResponse decode would. Every path and name it returns is a substring
// of one copy of b.
func DecodeSubtrees(b []byte) ([]Subtree, error) {
	var ts []Subtree
	c := codec{dec: true, s: string(b)}
	if c.subtrees(&ts); c.bad || c.i != len(c.s) {
		return nil, errMalformed
	}
	return ts, nil
}
