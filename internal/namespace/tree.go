package namespace

import (
	"fmt"
	"strings"

	"d2tree/internal/wire"
)

// Tree is a mutable namespace tree. The zero value is not usable; construct
// with NewTree. Tree is not safe for concurrent mutation; wrap it if shared.
type Tree struct {
	root  *Node
	nodes []*Node // indexed by NodeID; deleted slots are nil
	live  int     // number of non-nil nodes
}

// NewTree returns a tree containing only the root directory "/".
func NewTree() *Tree {
	root := &Node{name: "/", kind: uint8(KindDir), version: 1}
	return &Tree{root: root, nodes: []*Node{root}, live: 1}
}

// Root returns the root directory node.
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of live nodes in the tree, N, including the root.
func (t *Tree) Len() int { return t.live }

// IDSpan returns the size of the node-ID space (deleted IDs included);
// every live NodeID is < IDSpan.
func (t *Tree) IDSpan() int { return len(t.nodes) }

// Node returns the node with the given ID, or nil if out of range.
func (t *Tree) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(t.nodes) {
		return nil
	}
	return t.nodes[id]
}

// AddChild creates a new child of parent with the given name and kind.
func (t *Tree) AddChild(parent *Node, name string, kind Kind) (*Node, error) {
	switch {
	case parent == nil:
		return nil, ErrNotFound
	case !parent.IsDir():
		return nil, ErrNotDir
	}
	if err := wire.CheckName(name); err != nil {
		return nil, fmt.Errorf("namespace: %w: %q", err, name)
	}
	n := &Node{id: int32(len(t.nodes)), kind: uint8(kind), version: 1}
	if Attach(parent, name, n) != n {
		return nil, errExists(parent, name)
	}
	t.nodes = append(t.nodes, n)
	t.live++
	return n, nil
}

// MkdirAll resolves path, creating missing intermediate directories, and
// returns the final directory node. The path must be absolute.
func (t *Tree) MkdirAll(path string) (*Node, error) {
	return t.addPath(path, KindDir)
}

// AddFile creates a file at path, creating missing parent directories.
func (t *Tree) AddFile(path string) (*Node, error) {
	return t.addPath(path, KindFile)
}

func (t *Tree) addPath(path string, leaf Kind) (*Node, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	cur := t.root
	for i, part := range parts {
		next := cur.Child(part)
		if next == nil {
			kind := KindDir
			if i == len(parts)-1 {
				kind = leaf
			}
			next, err = t.AddChild(cur, part, kind)
			if err != nil {
				return nil, err
			}
		} else if i == len(parts)-1 && next.Kind() != leaf {
			return nil, fmt.Errorf("%w: %q is a %v", ErrExists, path, next.Kind())
		}
		cur = next
	}
	if cur == t.root && leaf == KindFile {
		return nil, ErrIsRoot
	}
	return cur, nil
}

// Lookup resolves an absolute path to a node.
func (t *Tree) Lookup(path string) (*Node, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	cur := t.root
	for _, part := range parts {
		cur = cur.Child(part)
		if cur == nil {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, path)
		}
	}
	return cur, nil
}

// Path returns the absolute path of n within t.
func (t *Tree) Path(n *Node) string {
	if n == nil {
		return ""
	}
	return n.Path()
}

// Touch adds delta to n's individual popularity and propagates it up the
// ancestor chain so aggregate popularity (Def. 2) stays consistent.
func (t *Tree) Touch(n *Node, delta int64) {
	n.selfPop += delta
	for cur := n; cur != nil; cur = cur.parent {
		cur.totalPop += delta
	}
}

// SetUpdateCost sets u_j for a node.
func (t *Tree) SetUpdateCost(n *Node, cost int64) { n.updateCost = cost }

// AddUpdateCost adds delta to u_j for a node.
func (t *Tree) AddUpdateCost(n *Node, delta int64) { n.updateCost += delta }

// RecomputePopularity rebuilds every node's aggregate popularity from the
// individual popularities in one bottom-up pass. It is the slow-path
// counterpart to the incremental maintenance in Touch and is used after bulk
// edits or deserialisation.
func (t *Tree) RecomputePopularity() {
	// nodes are created parent-before-child, so a reverse sweep is bottom-up.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n == nil {
			continue
		}
		total := n.selfPop
		for _, c := range n.children {
			total += c.totalPop
		}
		n.totalPop = total
	}
}

// CheckPopularity verifies the aggregate-popularity invariant and returns
// ErrStaleTotal (wrapped with the offending path) on the first violation.
func (t *Tree) CheckPopularity() error {
	for _, n := range t.nodes {
		if n == nil {
			continue
		}
		want := n.selfPop
		for _, c := range n.children {
			want += c.totalPop
		}
		if n.totalPop != want {
			return fmt.Errorf("%w: %q has total %d, want %d",
				ErrStaleTotal, t.Path(n), n.totalPop, want)
		}
	}
	return nil
}

// Walk visits every node in depth-first pre-order, stopping early if fn
// returns false for a directory (its subtree is skipped) — mirroring the
// cut-line traversal used by the splitter.
func (t *Tree) Walk(fn func(*Node) bool) { t.root.Walk(fn) }

// Nodes returns all live nodes in creation order (root first). The
// returned slice is a copy.
func (t *Tree) Nodes() []*Node {
	out := make([]*Node, 0, t.live)
	for _, n := range t.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// MaxDepth returns the maximum node depth in the tree.
func (t *Tree) MaxDepth() int {
	maxd := 0
	for _, n := range t.nodes {
		if n == nil {
			continue
		}
		maxd = max(maxd, n.Depth())
	}
	return maxd
}

// TotalPopularity returns Σ p'_j over all nodes — which equals the root's
// aggregate popularity by the Def. 2 invariant.
func (t *Tree) TotalPopularity() int64 { return t.root.totalPop }

// SubtreeNodes returns every node in the subtree rooted at n (pre-order,
// including n itself).
func (t *Tree) SubtreeNodes(n *Node) []*Node {
	var out []*Node
	n.Walk(func(c *Node) bool { out = append(out, c); return true })
	return out
}

// SubtreeSize returns the number of nodes in the subtree rooted at n.
func (t *Tree) SubtreeSize(n *Node) int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// SplitPath validates an absolute path and splits it into components.
// "/" yields an empty slice. Repeated separators are rejected to keep path
// handling strict and predictable across the wire protocol.
func SplitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("namespace: path %q is not absolute", path)
	}
	if path == "/" {
		return nil, nil
	}
	trimmed := strings.TrimSuffix(path[1:], "/")
	parts := strings.Split(trimmed, "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("namespace: path %q has empty component", path)
		}
	}
	return parts, nil
}

// JoinPath builds an absolute path from components.
func JoinPath(parts ...string) string {
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}
