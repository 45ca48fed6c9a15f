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
)

// NodeID identifies a node within one Tree. IDs are dense, start at 0 for the
// root, and never change for the lifetime of the tree.
type NodeID int64

// InvalidID is returned by lookups that fail to resolve a node.
const InvalidID NodeID = -1

// Kind distinguishes directories from files.
type Kind int

// Node kinds. Enums start at one so the zero value is detectably unset.
const (
	KindDir Kind = iota + 1
	KindFile
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDir:
		return "dir"
	case KindFile:
		return "file"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Errors reported by tree mutation and lookup.
var (
	ErrNotFound   = errors.New("namespace: node not found")
	ErrNotDir     = errors.New("namespace: parent is not a directory")
	ErrExists     = errors.New("namespace: name already exists in parent")
	ErrEmptyName  = errors.New("namespace: empty node name")
	ErrSlashName  = errors.New("namespace: node name contains '/'")
	ErrIsRoot     = errors.New("namespace: operation not valid on root")
	ErrStaleTotal = errors.New("namespace: aggregate popularity is stale")
)

// Node is a single metadata object (file or directory) in the namespace tree.
// Nodes are owned by their Tree and must only be mutated through it.
type Node struct {
	id       NodeID
	name     string
	kind     Kind
	parent   *Node
	children []*Node
	// byName indexes children by name once there are more than indexFanout
	// of them, and is nil otherwise.
	byName map[string]*Node

	selfPop    int64 // p'_j: individual access popularity
	totalPop   int64 // p_j: selfPop + Σ descendants' selfPop (maintained)
	updateCost int64 // u_j: cost of an update touching this node
	depth      int   // root is depth 0
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Name returns the final path component of the node ("/" for the root).
func (n *Node) Name() string { return n.name }

// Kind reports whether the node is a directory or a file.
func (n *Node) Kind() Kind { return n.kind }

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.kind == KindDir }

// Parent returns the parent node, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Depth returns the number of edges from the root (root is 0).
func (n *Node) Depth() int { return n.depth }

// SelfPopularity returns p'_j, the node's individual access popularity.
func (n *Node) SelfPopularity() int64 { return n.selfPop }

// TotalPopularity returns p_j, the aggregate popularity of the node's
// subtree (Def. 2). It is maintained incrementally by Tree.Touch and
// recomputed wholesale by Tree.RecomputePopularity.
func (n *Node) TotalPopularity() int64 { return n.totalPop }

// UpdateCost returns u_j, the cost charged when this node's metadata is
// updated while it sits in the replicated global layer (Def. 4).
func (n *Node) UpdateCost() int64 { return n.updateCost }

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
// may hold already.
func (t *Tree) attach(n, c *Node) error {
	if n.Child(c.name) != nil {
		return t.errExists(n, c.name)
	}
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
	return nil
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

// errExists is the error for a second child named name under n.
func (t *Tree) errExists(n *Node, name string) error {
	return fmt.Errorf("%w: %q under %q", ErrExists, name, t.Path(n))
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
