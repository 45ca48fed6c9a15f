// Package namespace models the file-system namespace tree that metadata
// partition schemes operate on.
//
// Every file or directory is a Node carrying an individual access popularity
// p'_j (Def. 2 in the paper) and an update cost u_j (Def. 4). The aggregate
// popularity p_j of a node is its own popularity plus that of every
// descendant, so a parent is always at least as popular as any child —
// the property the D2-Tree global/local split relies on.
package namespace

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"d2tree/internal/wire"
)

// NodeID identifies a node within one Tree. IDs are dense, start at 0 for the
// root, and never change for the lifetime of the tree.
type NodeID int64

// InvalidID is returned by lookups that fail to resolve a node.
const InvalidID NodeID = -1

// Kind distinguishes directories from files. It is the wire's entry kind:
// kind 0 is a path that holds no entry, which an MDS keeps a node for while
// entries beneath it need one, and which a Tree never holds.
type Kind = wire.EntryKind

// Node kinds. Enums start at one so the zero value is detectably unset.
const (
	KindDir  = wire.EntryDir
	KindFile = wire.EntryFile
)

// Errors reported by tree mutation and lookup.
var (
	ErrNotFound   = errors.New("namespace: node not found")
	ErrNotDir     = errors.New("namespace: parent is not a directory")
	ErrExists     = errors.New("namespace: name already exists in parent")
	ErrEmptyName  = wire.ErrEmptyName
	ErrSlashName  = wire.ErrSlashName
	ErrIsRoot     = errors.New("namespace: operation not valid on root")
	ErrStaleTotal = errors.New("namespace: aggregate popularity is stale")
)

// Node is a single metadata object (file or directory) in the namespace tree,
// the Monitor's and an MDS's alike. Nodes are owned by their Tree, or by the
// MDS store that linked them, and must only be mutated through it.
//
// A node holds 112 bytes: the ID and the depth are 32-bit and the kind and
// the global-layer mark are a byte each, which leaves room for the
// attributes an MDS serves beside the popularity the Monitor splits by.
type Node struct {
	name     string
	parent   *Node
	children []*Node
	// byName indexes children by name once there are more than indexFanout
	// of them, and is nil otherwise.
	byName map[string]*Node

	selfPop    int64 // p'_j: individual access popularity
	totalPop   int64 // p_j: selfPop + Σ descendants' selfPop (maintained)
	updateCost int64 // u_j: cost of an update touching this node
	// size, mode and version are the entry's attributes. A Tree's nodes
	// stay at version 1, the version a created entry starts at.
	size    int64
	version int64
	id      int32 // NodeID
	mode    uint32
	depth   int32 // root is depth 0
	kind    uint8 // Kind
	// gl marks an MDS's global-layer replica entry; a Tree sets none.
	gl bool
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return NodeID(n.id) }

// Name returns the final path component of the node ("/" for the root).
func (n *Node) Name() string { return n.name }

// Kind reports whether the node is a directory or a file, or kind 0.
func (n *Node) Kind() Kind { return Kind(n.kind) }

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.Kind() == KindDir }

// Parent returns the parent node, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Depth returns the number of edges from the root (root is 0).
func (n *Node) Depth() int { return int(n.depth) }

// SelfPopularity returns p'_j, the node's individual access popularity.
func (n *Node) SelfPopularity() int64 { return n.selfPop }

// TotalPopularity returns p_j, the aggregate popularity of the node's
// subtree (Def. 2). It is maintained incrementally by Tree.Touch and
// recomputed wholesale by Tree.RecomputePopularity.
func (n *Node) TotalPopularity() int64 { return n.totalPop }

// UpdateCost returns u_j, the cost charged when this node's metadata is
// updated while it sits in the replicated global layer (Def. 4).
func (n *Node) UpdateCost() int64 { return n.updateCost }

// Version returns the version of the node's entry.
func (n *Node) Version() int64 { return n.version }

// Entry is the node's entry at path: its kind and attributes.
func (n *Node) Entry(path string) wire.Entry {
	return wire.Entry{Path: path, Kind: n.Kind(), Size: n.size, Mode: n.mode, Version: n.version}
}

// SetEntry gives the node e's kind and attributes. e's path is the caller's
// business: a node knows only its name.
func (n *Node) SetEntry(e *wire.Entry) {
	n.kind, n.size, n.mode, n.version = uint8(e.Kind), e.Size, e.Mode, e.Version
}

// GL reports whether the node holds a global-layer entry of an MDS replica.
func (n *Node) GL() bool { return n.gl }

// SetGL marks the node's entry as a global-layer entry, or not.
func (n *Node) SetGL(gl bool) { n.gl = gl }

// NumChildren returns the number of direct children.
func (n *Node) NumChildren() int { return len(n.children) }

// Children returns a copy of the direct-children slice. The copy keeps
// callers from mutating tree structure through the returned slice.
func (n *Node) Children() []*Node {
	out := make([]*Node, len(n.children))
	copy(out, n.children)
	return out
}

// indexFanout is how many children a directory has before it keeps a
// by-name index of them; up to it, Child scans the children. Namespaces have
// bounded branching: 2 of the 9,363 directories of the benchmark's 20k-node
// LMBE namespace have more than 16 children.
const indexFanout = 16

// Child returns the direct child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	if n.byName != nil {
		return n.byName[name]
	}
	for _, c := range n.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// attach makes c the last child of n, under c's name, which no child of n
// holds.
func (n *Node) attach(c *Node) {
	n.children = append(n.children, c)
	switch {
	case n.byName != nil:
		n.byName[c.name] = c
	case len(n.children) > indexFanout:
		n.byName = make(map[string]*Node, cap(n.children))
		for _, x := range n.children {
			n.byName[x.name] = x
		}
	}
}

// removeChild unlinks c from n's children, dropping the by-name index when
// it is no longer past indexFanout.
func (n *Node) removeChild(c *Node) {
	if i := slices.Index(n.children, c); i >= 0 {
		n.children = slices.Delete(n.children, i, i+1)
	}
	switch {
	case len(n.children) <= indexFanout:
		n.byName = nil
	case n.byName != nil:
		delete(n.byName, c.name)
	}
}

// Prune unlinks every child of n that holds no entry and has no children,
// in one pass over the children, dropping the by-name index when no more
// than indexFanout are left.
func (n *Node) Prune() {
	kept := n.children[:0]
	for _, c := range n.children {
		switch {
		case c.kind != 0 || len(c.children) > 0:
			kept = append(kept, c)
		case n.byName != nil:
			delete(n.byName, c.name)
		}
	}
	clear(n.children[len(kept):])
	if n.children = kept; len(kept) <= indexFanout {
		n.byName = nil
	}
}

// Attach returns parent's child named name, linking c there first when
// parent holds none: c, or a new kind-0 node when c is nil, takes the name
// and goes last among parent's children.
func Attach(parent *Node, name string, c *Node) *Node {
	if held := parent.Child(name); held != nil {
		return held
	}
	if c == nil {
		c = new(Node)
	}
	c.name, c.parent, c.depth = name, parent, parent.depth+1
	parent.attach(c)
	return c
}

// Detach unlinks the node, and everything beneath it, from its parent, and
// returns the parent: nil for a root.
func (n *Node) Detach() (parent *Node) {
	if parent, n.parent = n.parent, nil; parent != nil {
		parent.removeChild(n)
	}
	return parent
}

// Relink renames the node within its parent. Every entry it moves takes its
// next version: a client caches entries by path. A sibling holding the new
// name already, with no entry of its own, is merged into the node: its
// children join the node's, each merged likewise into a child of the same
// name, where a moved entry wins. Relink returns how many entries the merge
// overwrote.
func (n *Node) Relink(name string) (lost int) {
	n.Walk(func(m *Node) bool {
		if m.kind != 0 {
			m.version++
		}
		return true
	})
	return n.move(n.parent, name)
}

// move takes n from its parent to parent, under name, merges a node that
// held the name there into it (absorb), and returns how many entries that
// overwrote.
func (n *Node) move(parent *Node, name string) (lost int) {
	n.parent.removeChild(n)
	n.name, n.parent = name, parent
	if held := parent.Child(name); held != nil {
		parent.removeChild(held)
		lost = n.absorb(held)
	}
	parent.attach(n)
	n.Walk(func(m *Node) bool {
		m.depth = m.parent.depth + 1
		return true
	})
	return lost
}

// Walk visits n and every node beneath it in depth-first pre-order,
// skipping what lies beneath a node fn returns false for.
func (n *Node) Walk(fn func(*Node) bool) {
	if fn(n) {
		for _, c := range n.children {
			c.Walk(fn)
		}
	}
}

// absorb merges y, unlinked, into n (Relink) and returns how many of y's
// entries it dropped for n's. y, discarded, leaves the global layer: only a
// linked node is marked.
func (n *Node) absorb(y *Node) (lost int) {
	switch {
	case y.kind == 0:
	case n.kind == 0:
		n.kind, n.size, n.mode, n.version = y.kind, y.size, y.mode, y.version
	default:
		lost++
	}
	for _, c := range y.children {
		if held := n.Child(c.name); held != nil {
			lost += held.absorb(c)
			continue
		}
		c.parent = n
		n.attach(c)
	}
	y.parent, y.children, y.byName, y.gl = nil, nil, nil, false
	return lost
}

// ParentPath returns the directory holding path: "/" for a top-level path,
// "" for "/" itself.
func ParentPath(path string) string {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	} else if len(path) > 1 {
		return "/"
	}
	return ""
}

// Path returns the node's absolute path, read up its parent links.
func (n *Node) Path() string {
	var b strings.Builder
	n.WritePath(&b)
	return b.String()
}

// WritePath writes the node's absolute path to b, as Path returns it.
func (n *Node) WritePath(b *strings.Builder) {
	start := b.Len()
	n.EachAncestor(func(a *Node) bool {
		if a.parent != nil {
			b.WriteByte('/')
			b.WriteString(a.name)
		}
		return true
	})
	if b.Len() == start {
		b.WriteByte('/')
	}
}

// errExists is the error for a second child named name under n.
func errExists(n *Node, name string) error {
	return fmt.Errorf("%w: %q under %q", ErrExists, name, n.Path())
}

// IsAncestorOf reports whether n is a (strict or equal) ancestor of other.
func (n *Node) IsAncestorOf(other *Node) bool {
	for cur := other; cur != nil; cur = cur.parent {
		if cur == n {
			return true
		}
	}
	return false
}

// Ancestors returns the chain from the root down to and including n
// (A_j ∪ {n_j} in the paper's notation, ordered root-first). Accessing a
// node under POSIX semantics requires visiting exactly this chain.
func (n *Node) Ancestors() []*Node {
	chain := make([]*Node, n.depth+1)
	for cur := n; cur != nil; cur = cur.parent {
		chain[cur.depth] = cur
	}
	return chain
}

// EachAncestor visits the same root-first chain as Ancestors without
// allocating the slice, recursing up the parent pointers (depth is bounded
// by the namespace's max depth, 49 across the paper's traces). It stops and
// returns false as soon as fn does.
func (n *Node) EachAncestor(fn func(*Node) bool) bool {
	if n.parent != nil && !n.parent.EachAncestor(fn) {
		return false
	}
	return fn(n)
}

// EachChild visits the direct children in order without copying the slice
// (Children copies defensively; iteration-heavy callers like the route-table
// compiler use this instead). It stops and returns false as soon as fn does.
func (n *Node) EachChild(fn func(*Node) bool) bool {
	for _, c := range n.children {
		if !fn(c) {
			return false
		}
	}
	return true
}
