package wire

import (
	"errors"
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
// The encoding is Path, then the nodes in the tree shape the namespace
// snapshot shares (Shape), each with its size, mode and version.
// A decoder refuses what the shape refuses, and nodes under a Path that is
// not absolute.
type Subtree struct {
	Path  string        `json:"path"`
	Nodes []SubtreeNode `json:"nodes,omitempty"`
}

// SubtreeNode is one node of a Subtree. Kind 0 is a path that holds no
// entry: it is shipped only to link the entries beneath it (a directory the
// sending MDS holds no body for) and its attributes are zero. Parent and
// Mode share a word, which keeps a node at 48 bytes.
type SubtreeNode struct {
	Parent  int32     `json:"parent"`
	Mode    uint32    `json:"mode,omitempty"`
	Kind    EntryKind `json:"kind"`
	Name    string    `json:"name"`
	Size    int64     `json:"size,omitempty"`
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
	if sized(c, &m.Nodes, count); c.dec && count > 0 && (m.Path == "" || m.Path[0] != '/') {
		c.fail()
		return
	}
	shape := Shape{c: c}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		parent := int(n.Parent)
		if shape.Node(&parent, &n.Kind, &n.Name); c.dec {
			n.Parent = int32(parent)
		}
		c.i64(&n.Size)
		c.u32(&n.Mode)
		c.i64(&n.Version)
	}
}

// Paths is the full path of every node of some subtrees, counted across
// them in order, all in one string: each is its parent's, "/" and its
// name, written after its parent's.
type Paths struct {
	s    string
	ends []int32 // node k's path is s[ends[k]:ends[k+1]]
}

// PathsOf builds the paths of the nodes of trees, sizing the string once.
func PathsOf(trees []Subtree) Paths {
	total, size := 0, 0
	for _, t := range trees {
		total += len(t.Nodes)
	}
	p := Paths{ends: make([]int32, 1, total+1)}
	for _, t := range trees { // each path's length (a byte over under "/")
		base := len(p.ends)
		for i, n := range t.Nodes {
			length := int32(len(t.Path))
			if i > 0 {
				length = p.ends[base+int(n.Parent)] + 1 + int32(len(n.Name))
			}
			p.ends, size = append(p.ends, length), size+int(length)
		}
	}
	var b strings.Builder
	b.Grow(size)
	k := 0
	for _, t := range trees {
		for i, n := range t.Nodes {
			if i == 0 {
				b.WriteString(t.Path)
			} else {
				if up := p.At(k - i + int(n.Parent)); up != "/" {
					b.WriteString(up)
				}
				b.WriteByte('/')
				b.WriteString(n.Name)
			}
			k++
			p.ends[k], p.s = int32(b.Len()), b.String()
		}
	}
	return p
}

// At returns the path of node k.
func (p *Paths) At(k int) string { return p.s[p.ends[k]:p.ends[k+1]] }

// Shape codes a tree's shape, which a Subtree and the namespace snapshot
// share: the node count, then the nodes in pre-order, the root as its kind
// alone and every other node as the distance back to its parent (at least 1,
// at most its own index), its kind and its name, each node followed by its
// own attributes. A decoder refuses a parent that does not precede its node,
// a name CheckName refuses and a kind that is neither EntryDir, EntryFile
// nor 0.
type Shape struct {
	c    *codec
	next int // the index of the next node
}

// EncodeShape starts a tree of count nodes after b.
func EncodeShape(b []byte, count int) *Shape {
	s := &Shape{c: &codec{b: b}}
	s.c.count(count, 1)
	return s
}

// DecodeShape starts decoding the tree b holds, whose nodes each carry
// attributes of at least attrMin bytes, and returns its node count: 0 when
// the bytes cannot hold that many. Every name it decodes is a substring of
// one copy of b.
func DecodeShape(b []byte, attrMin int) (*Shape, int) {
	s := &Shape{c: &codec{dec: true, s: string(b)}}
	return s, s.c.count(0, 1+attrMin)
}

// Node codes the next node's parent (its index), kind, name and then attrs,
// and reports whether everything decoded so far is well formed.
func (s *Shape) Node(parent *int, kind *EntryKind, name *string, attrs ...*int64) bool {
	c, i := s.c, s.next
	s.next++
	if i > 0 {
		up := uint64(i - *parent)
		c.u64(&up)
		if c.dec {
			if up == 0 || up > uint64(i) {
				c.fail()
				return false
			}
			*parent = i - int(up)
		}
	}
	c.integer((*int)(kind))
	if i > 0 {
		c.str(name)
	}
	if c.dec && (*kind < 0 || *kind > EntryFile || i > 0 && CheckName(*name) != nil) {
		c.fail()
	}
	for _, a := range attrs {
		c.i64(a)
	}
	return !c.bad
}

// End returns the encoding. Decoding, it refuses what Node refused and bytes
// left over once every node has been read.
func (s *Shape) End() ([]byte, error) {
	if s.c.bad || s.c.dec && s.c.i != len(s.c.s) {
		return nil, errMalformed
	}
	return s.c.b, nil
}

// Errors CheckName returns.
var (
	ErrEmptyName = errors.New("empty node name")
	ErrSlashName = errors.New("node name contains '/'")
)

// CheckName is the one check of a node's name, whichever tree the node is
// in: nil for a name that is not empty and holds no '/', and ErrEmptyName or
// ErrSlashName otherwise.
func CheckName(name string) error {
	switch {
	case name == "":
		return ErrEmptyName
	case strings.IndexByte(name, '/') >= 0:
		return ErrSlashName
	}
	return nil
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

// Image is an MDS's local layer at rest, the body of its snapshot image: the
// log horizon it was taken at, the subtree roots it owns, its access
// counters, and its local layer as one tree at "/". GLVersion is written as
// 0 and read by nothing: a server takes its global-layer version from its
// join, before it serves. An image an older MDS wrote may hold one there.
type Image struct {
	GLVersion int64
	Horizon   int64
	Roots     []string
	OpCounts  map[string]int64
	Tree      Subtree
}

func (m *Image) code(c *codec) {
	c.i64(&m.GLVersion)
	c.i64(&m.Horizon)
	c.strs(&m.Roots)
	c.counts(&m.OpCounts)
	m.Tree.code(c)
}

// MonitorImage is the Monitor's journaled state at rest, the body of its
// image: the global-layer version and the log horizon it was taken at, the
// global layer, the owner of each subtree root (a server id), and the
// namespace tree as one tree at "/".
type MonitorImage struct {
	GLVersion int64
	Horizon   int64
	GL        []Entry
	Owners    map[string]int64
	Tree      Subtree
}

func (m *MonitorImage) code(c *codec) {
	c.i64(&m.GLVersion)
	c.i64(&m.Horizon)
	c.entries(&m.GL)
	c.counts(&m.Owners)
	m.Tree.code(c)
}

// The records the daemons journal (wal.Journal), each logged as the type its
// RecType names; an MDS's rename is the RenameRequest it served. A record of
// a JSON-era log decodes into the same struct by its fields' names, but for
// an MDS's install (the server's upgrade).

// CreateRecord and SetAttrRecord are an MDS's create and setattr: the
// committed post-op entry, installed verbatim.
type CreateRecord struct{ Entry Entry }

// SetAttrRecord: see CreateRecord.
type SetAttrRecord struct{ Entry Entry }

func (m *CreateRecord) code(c *codec)  { m.Entry.code(c) }
func (m *SetAttrRecord) code(c *codec) { m.Entry.code(c) }

// InstallRecord is one chunk of an MDS's install: it takes ownership of the
// subtree roots Roots and stores the nodes of Trees.
type InstallRecord struct {
	Roots []string
	Trees []Subtree
}

func (m *InstallRecord) code(c *codec) {
	c.strs(&m.Roots)
	c.subtrees(&m.Trees)
}

// RemoveRecord forgets an MDS's owned subtree and its local-layer entries.
type RemoveRecord struct{ Root string }

func (m *RemoveRecord) code(c *codec) { c.str(&m.Root) }

// GLUpdateRecord is one global-layer write on the Monitor: the entry as
// committed and the GL version it took. A create (Op) also mirrors the path
// into the Monitor's tree.
type GLUpdateRecord struct {
	Op        string
	Entry     Entry
	GLVersion int64
}

func (m *GLUpdateRecord) code(c *codec) {
	c.str(&m.Op)
	m.Entry.code(c)
	c.i64(&m.GLVersion)
}

// OwnerRecord gives one subtree root to a server.
type OwnerRecord struct {
	Root   string
	Server int
}

func (m *OwnerRecord) code(c *codec) {
	c.str(&m.Root)
	c.integer(&m.Server)
}

// LLPathsRecord mirrors into the Monitor's tree the local-layer paths that
// heartbeats reported created.
type LLPathsRecord struct{ Entries []Entry }

func (m *LLPathsRecord) code(c *codec) { c.entries(&m.Entries) }

// LayerRecord is one chunk of a re-evaluated global layer and subtree owner
// set; the first (Reset) replaces both, the rest extend them.
type LayerRecord struct {
	Reset     bool
	GLVersion int64
	Entries   []Entry
	Owners    []OwnerRecord
}

func (m *LayerRecord) code(c *codec) {
	c.flag(&m.Reset)
	c.i64(&m.GLVersion)
	c.entries(&m.Entries)
	sized(c, &m.Owners, c.count(len(m.Owners), ownerMin))
	for i := range m.Owners {
		m.Owners[i].code(c)
	}
}

func (*CreateRecord) RecType() string   { return "create" }
func (*SetAttrRecord) RecType() string  { return "setattr" }
func (*RenameRequest) RecType() string  { return "rename" }
func (*InstallRecord) RecType() string  { return "install_trees" }
func (*RemoveRecord) RecType() string   { return "remove" }
func (*GLUpdateRecord) RecType() string { return "gl_update" }
func (*OwnerRecord) RecType() string    { return "owner" }
func (*LLPathsRecord) RecType() string  { return "ll_paths" }
func (*LayerRecord) RecType() string    { return "gl_layer" }
