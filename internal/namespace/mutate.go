package namespace

import (
	"fmt"
)

// Rename moves node n under newParent with the given name, carrying its
// whole subtree and keeping popularity aggregates consistent. Renaming the
// root, into a file, onto an existing name, or into the node's own subtree
// is rejected.
//
// Rename is the operation the paper's related-work section calls out:
// subtree-based partitions relocate nothing (the subtree moves logically),
// while hash-based partitions must rehash every descendant. The partition
// schemes quantify that through RenameRelocations.
func (t *Tree) Rename(n *Node, newParent *Node, newName string) error {
	switch {
	case n == nil || newParent == nil:
		return ErrNotFound
	case n.parent == nil:
		return ErrIsRoot
	case !newParent.IsDir():
		return ErrNotDir
	}
	if err := checkName(newName); err != nil {
		return err
	}
	if n.IsAncestorOf(newParent) {
		return fmt.Errorf("namespace: cannot move %q into its own subtree", t.Path(n))
	}
	if existing := newParent.Child(newName); existing != nil && existing != n {
		return t.errExists(newParent, newName)
	}

	// Detach: popularity leaves the old ancestor chain.
	sub := n.totalPop
	oldParent := n.parent
	for cur := oldParent; cur != nil; cur = cur.parent {
		cur.totalPop -= sub
	}
	oldParent.removeChild(n)

	// Attach under the new parent, where the name is now free.
	n.parent = newParent
	n.name = newName
	_ = t.attach(newParent, n)
	for cur := newParent; cur != nil; cur = cur.parent {
		cur.totalPop += sub
	}
	t.refreshDepths(n)
	return nil
}

// Delete removes node n and its whole subtree, returning the number of
// removed nodes. Node IDs of removed nodes become dangling (Tree.Node
// returns nil for them); IDs are never reused.
func (t *Tree) Delete(n *Node) (int, error) {
	if n == nil {
		return 0, ErrNotFound
	}
	if n.parent == nil {
		return 0, ErrIsRoot
	}
	removed := t.SubtreeNodes(n)
	sub := n.totalPop
	for cur := n.parent; cur != nil; cur = cur.parent {
		cur.totalPop -= sub
	}
	n.parent.removeChild(n)
	for _, rn := range removed {
		t.nodes[rn.id] = nil
		rn.parent = nil
	}
	t.live -= len(removed)
	return len(removed), nil
}

// refreshDepths recomputes depths for n's subtree after a move.
func (t *Tree) refreshDepths(n *Node) {
	n.depth = n.parent.depth + 1
	for _, c := range n.children {
		t.refreshDepths(c)
	}
}
