package namespace

import (
	"strings"

	"d2tree/internal/wire"
)

// SlabOf reads the nodes of trees into one slab, tree after tree, so slab
// node k is the k-th node the trees hold, with the kind, name and attributes
// its SubtreeNode gives. A tree's root is left unlinked; every other node
// points at its parent in the slab, for the caller to link it there
// (Attach), parents first, into children already carved at their count
// (carve).
func SlabOf(trees []wire.Subtree) []Node {
	total, links := 0, 0
	for _, t := range trees {
		total, links = total+len(t.Nodes), links+max(len(t.Nodes)-1, 0)
	}
	nodes, k := make([]Node, total), 0
	for _, t := range trees {
		for i := range t.Nodes {
			sn, n := &t.Nodes[i], &nodes[k+i]
			n.name, n.kind, n.size, n.mode, n.version = sn.Name, uint8(sn.Kind), sn.Size, sn.Mode, sn.Version
			if i > 0 {
				n.parent = &nodes[k+int(sn.Parent)]
				n.parent.depth++
			}
		}
		k += len(t.Nodes)
	}
	carve(nodes, links)
	return nodes
}

// carve gives each node of a slab with children, which its depth counts
// until then, its share of one slice of links children, at its exact
// capacity. The bulk loads (SlabOf, ReadSnapshot) share it.
func carve(nodes []Node, links int) {
	children := make([]*Node, links)
	for i := range nodes {
		if n := &nodes[i]; n.depth > 0 {
			n.children, children = children[:0:n.depth], children[n.depth:]
			n.depth = 0
		}
	}
}

// AppendSubtree appends top and every node beneath it to nodes in
// pre-order (Walk's order), as a wire.Subtree holds them: top as the root,
// with no name, and every other node after its parent, named, with its
// parent's index counted from top's.
func AppendSubtree(nodes []wire.SubtreeNode, top *Node) []wire.SubtreeNode {
	return top.appendSubtree(nodes, len(nodes), 0, "")
}

// appendSubtree appends n, named name under the node at index parent, and
// its descendants (AppendSubtree); base is the index of the subtree's root.
func (n *Node) appendSubtree(nodes []wire.SubtreeNode, base, parent int, name string) []wire.SubtreeNode {
	nodes = append(nodes, wire.SubtreeNode{Parent: int32(parent), Kind: n.Kind(), Name: name, Size: n.size, Mode: n.mode, Version: n.version})
	at := len(nodes) - 1 - base
	for _, c := range n.children {
		nodes = c.appendSubtree(nodes, base, at, c.name)
	}
	return nodes
}

// Merge adds to t each node of s, a tree at "/" in AppendSubtree's shape,
// that t does not hold, as AddChild adds it, with its name copied out of s.
// A node AddChild refuses is skipped, and so is everything beneath it.
func (t *Tree) Merge(s wire.Subtree) {
	nodes := make([]*Node, len(s.Nodes))
	for i, sn := range s.Nodes {
		switch parent := nodes[sn.Parent]; {
		case i == 0:
			nodes[0] = t.root
		case parent != nil:
			if nodes[i] = parent.Child(sn.Name); nodes[i] == nil {
				nodes[i], _ = t.AddChild(parent, strings.Clone(sn.Name), sn.Kind)
			}
		}
	}
}
