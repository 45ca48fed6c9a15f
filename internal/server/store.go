package server

import (
	"maps"
	"slices"
	"strings"

	"d2tree/internal/wire"
)

// store is the MDS namespace: the server's replica of the global layer and
// the local-layer subtrees it owns, as one tree. Every node is reachable by
// its full path in one hash probe (the lookup hot path) and linked to its
// parent and children, so a listing walks a directory's children and a
// subtree operation walks the root's descendants. Nothing scans the store.
//
// The tree stays connected whatever order entries arrive in. A path whose
// parent is not held hangs off placeholder nodes without an entry, created
// on demand and pruned when their last descendant leaves. That one mechanism
// covers both orderings the server sees: a child put before its parent (an
// install or WAL record landing ahead of the GL refresh that carries the
// parent directory) is listed as soon as the parent's entry fills the
// placeholder, and a directory whose entry is taken away (a GL refresh
// replacing it) keeps its children linked for the entry that replaces it. A
// subtree is therefore exactly the entries whose path extends its root's,
// whether or not every directory in between is held.
//
// A store is not safe for concurrent use; Server.mu guards it.
type store struct {
	nodes   map[string]*node
	entries int // nodes holding an entry
	// gl lists the nodes put as global-layer entries since the last
	// replaceGL, so a refresh finds the old set without a scan. It can hold
	// nodes demoted or removed since; replaceGL skips those.
	gl []*node
}

// node is one path in the tree. entry.Path is set on placeholders too.
type node struct {
	entry   wire.Entry
	present bool // holds an entry; false on a placeholder
	gl      bool // the entry belongs to the global-layer replica

	parent, child *node // child heads the list of children
	prev, next    *node // siblings
}

func newStore() *store { return &store{nodes: make(map[string]*node)} }

// parentPath returns the directory holding path: "/" for a top-level path,
// "" for "/" itself.
func parentPath(path string) string {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	if len(path) > 1 {
		return "/"
	}
	return ""
}

// childPath is the path of name in the directory dir.
func childPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// reserve sizes the path map for n more nodes in one step, so a join that
// installs them does not grow it entry by entry.
func (st *store) reserve(n int) {
	nodes := make(map[string]*node, len(st.nodes)+n)
	maps.Copy(nodes, st.nodes)
	st.nodes = nodes
}

// len returns the number of entries held.
func (st *store) len() int { return st.entries }

// get returns the entry at path, nil when none is held, and whether it is a
// global-layer entry. The pointer is the stored entry: writers holding
// Server.mu update it in place.
func (st *store) get(path string) (e *wire.Entry, gl bool) {
	if n := st.nodes[path]; n != nil && n.present {
		return &n.entry, n.gl
	}
	return nil, false
}

// put stores e at e.Path as a global-layer or local-layer entry, replacing
// whatever entry was there, and returns the stored entry.
func (st *store) put(e wire.Entry, gl bool) *wire.Entry {
	n := st.node(e.Path)
	if !n.present {
		n.present = true
		st.entries++
	}
	if gl && !n.gl {
		st.gl = append(st.gl, n)
	}
	n.entry, n.gl = e, gl
	return &n.entry
}

// node returns the node at path, creating it and every missing ancestor up
// to the nearest held one.
func (st *store) node(path string) *node {
	if n := st.nodes[path]; n != nil {
		return n
	}
	leaf := &node{entry: wire.Entry{Path: path}}
	st.nodes[path] = leaf
	for n := leaf; ; {
		pp := parentPath(n.entry.Path)
		if pp == "" {
			break
		}
		p, held := st.nodes[pp]
		if !held {
			p = &node{entry: wire.Entry{Path: pp}}
			st.nodes[pp] = p
		}
		n.parent, n.next = p, p.child
		if p.child != nil {
			p.child.prev = n
		}
		p.child = n
		if held {
			break
		}
		n = p
	}
	return leaf
}

// remove takes n's entry away. The node stays as a placeholder while it has
// children; otherwise it, and each ancestor left empty by it, is unlinked.
func (st *store) remove(n *node) {
	n.entry = wire.Entry{Path: n.entry.Path}
	n.present, n.gl = false, false
	st.entries--
	for n != nil && !n.present && n.child == nil {
		delete(st.nodes, n.entry.Path)
		p := n.parent
		if p != nil {
			if n.prev != nil {
				n.prev.next = n.next
			} else {
				p.child = n.next
			}
			if n.next != nil {
				n.next.prev = n.prev
			}
			n.parent, n.prev, n.next = nil, nil, nil
		}
		n = p
	}
}

// graft stores the nodes of trees as local-layer entries, as put would one
// by one, in one pass: each node's path is its parent's, found by index,
// and its name, all of them in one string; the nodes the store did
// not hold come from one slab; and the map sees one probe per node and one
// insert per new one. A tree's root is linked like any path node links (its
// missing ancestors become placeholders). A kind-0 node, a path with no
// entry, is linked only once an entry beneath it needs it, so no placeholder
// is left without one. A path already held keeps its node, which takes the
// entry.
func (st *store) graft(trees []wire.Subtree) {
	total := 0
	for _, t := range trees {
		total += len(t.Nodes)
	}
	g := grafting{st: st, at: make([]graftNode, total)}
	// Each path's length first, in end, so the string is sized once (a
	// byte over for each child of "/").
	size, k := 0, 0
	for _, t := range trees {
		base := k
		for i, n := range t.Nodes {
			a := &g.at[k]
			a.up, a.end = -1, len(t.Path)
			if i > 0 {
				a.up = base + n.Parent
				a.end = g.at[a.up].end + 1 + len(n.Name)
			}
			size += a.end
			k++
		}
	}
	// The paths, each after its parent's, so each is a copy of a part of
	// what is written already. Node k's path ends where node k+1's begins.
	var b strings.Builder
	b.Grow(size)
	k = 0
	for _, t := range trees {
		for i, n := range t.Nodes {
			a := &g.at[k]
			if i == 0 {
				b.WriteString(t.Path)
			} else {
				if up := g.path(a.up); up != "/" {
					b.WriteString(up)
				}
				b.WriteByte('/')
				b.WriteString(n.Name)
			}
			a.end = b.Len()
			g.paths = b.String()
			k++
		}
	}
	g.slab = make([]node, total)
	k = 0
	for _, t := range trees {
		for _, n := range t.Nodes {
			if n.Kind != 0 {
				nd := g.link(k)
				if !nd.present {
					nd.present = true
					st.entries++
				}
				nd.entry = wire.Entry{Path: nd.entry.Path, Kind: n.Kind, Size: n.Size, Mode: n.Mode, Version: n.Version}
				nd.gl = false
			}
			k++
		}
	}
}

// grafting is one graft's state: per node, where its path ends in paths,
// its parent's index (-1 for a tree's root) and, once linked, its node.
type grafting struct {
	st    *store
	at    []graftNode
	paths string
	slab  []node
}

type graftNode struct {
	end, up int
	n       *node
}

// path is graft node k's path.
func (g *grafting) path(k int) string {
	lo := 0
	if k > 0 {
		lo = g.at[k-1].end
	}
	return g.paths[lo:g.at[k].end]
}

// link returns the store's node for graft node k, linking it, and the
// ancestors it needs, when the store holds none at its path. The store
// stays connected, so it holds no path beneath one this graft linked: only
// a node whose parent the store held already is looked up before it is
// inserted. A name given twice under one parent keeps its first node.
func (g *grafting) link(k int) *node {
	a := &g.at[k]
	if a.n != nil {
		return a.n
	}
	path := g.path(k)
	if a.up < 0 {
		a.n = g.st.node(path)
		return a.n
	}
	p := g.link(a.up)
	if p != &g.slab[a.up] {
		if a.n = g.st.nodes[path]; a.n != nil {
			return a.n
		}
	}
	n := &g.slab[k]
	n.entry.Path = path
	held := len(g.st.nodes)
	if g.st.nodes[path] = n; len(g.st.nodes) == held {
		// The path was taken: by a sibling linked before, under p.
		for a.n = p.child; a.n.entry.Path != path; a.n = a.n.next {
		}
		g.st.nodes[path] = a.n
		return a.n
	}
	n.parent, n.next = p, p.child
	if p.child != nil {
		p.child.prev = n
	}
	p.child = n
	a.n = n
	return n
}

// tree is the subtree at root as an install ships it: every entry held
// under root, global-layer ones too, in pre-order, and a kind-0 node for
// each placeholder linking them; no nodes when nothing is held there. With
// local set, as the snapshot image takes it, a global-layer entry is a
// kind-0 node too.
func (st *store) tree(root string, local bool) wire.Subtree {
	t := wire.Subtree{Path: root}
	if top := st.nodes[root]; top != nil {
		nodes := []wire.SubtreeNode{treeNode(top, 0, "", local)}
		if root == "/" { // every node the store holds
			nodes = slices.Grow(nodes, len(st.nodes)-1)
		}
		t.Nodes = appendNodes(nodes, top, 0, local)
	}
	return t
}

// appendNodes appends every node beneath n, the node at index at.
func appendNodes(nodes []wire.SubtreeNode, n *node, at int, local bool) []wire.SubtreeNode {
	for c := n.child; c != nil; c = c.next {
		p := c.entry.Path
		nodes = append(nodes, treeNode(c, at, p[strings.LastIndexByte(p, '/')+1:], local))
		if c.child != nil {
			nodes = appendNodes(nodes, c, len(nodes)-1, local)
		}
	}
	return nodes
}

// treeNode is n as a subtree node under the parent at index parent: a
// kind-0 node for a placeholder and, with local set, for a global-layer
// entry.
func treeNode(n *node, parent int, name string, local bool) wire.SubtreeNode {
	if !n.present || local && n.gl {
		return wire.SubtreeNode{Parent: parent, Name: name}
	}
	e := &n.entry
	return wire.SubtreeNode{Parent: parent, Kind: e.Kind, Name: name, Size: e.Size, Mode: e.Mode, Version: e.Version}
}

// each calls fn on top and every node beneath it, parents first. fn must not
// unlink nodes. A nil top visits nothing.
func (top *node) each(fn func(*node)) {
	for n := top; n != nil; {
		fn(n)
		if n.child != nil {
			n = n.child
			continue
		}
		for n != top && n.next == nil {
			n = n.parent
		}
		if n == top {
			return
		}
		n = n.next
	}
}

// children calls fn on every entry held directly under path, in no
// particular order.
func (st *store) children(path string, fn func(*wire.Entry)) {
	if dir := st.nodes[path]; dir != nil {
		for c := dir.child; c != nil; c = c.next {
			if c.present {
				fn(&c.entry)
			}
		}
	}
}

// walk calls fn on every entry of the subtree at root, the root's own entry
// included, parents before children. fn must not change the store.
func (st *store) walk(root string, fn func(e *wire.Entry, gl bool)) {
	st.nodes[root].each(func(n *node) {
		if n.present {
			fn(&n.entry, n.gl)
		}
	})
}

// rename moves the entry at path and every entry beneath it to the sibling
// name newName, bumping the version of each, and returns the moved entry. It
// returns nil and changes nothing when path holds no entry; the one caller,
// applyLocked, gets a rename record only for a path the live body found held,
// and recovery applies each record once over the state before it. Only the
// moved entries are touched, so the cost is the size of the subtree.
func (st *store) rename(path, newName string) *wire.Entry {
	top := st.nodes[path]
	if top == nil || !top.present {
		return nil
	}
	newPath := path[:strings.LastIndexByte(path, '/')+1] + newName
	if newPath == path {
		return &top.entry
	}
	var moved []*node
	top.each(func(n *node) {
		if n.present {
			moved = append(moved, n)
		}
	})
	// Take each entry out and put it back under its new path: whatever is
	// already linked under the new name (entries created beneath it before
	// the directory itself existed) merges with what moves in.
	for _, n := range moved {
		e, gl := n.entry, n.gl
		st.remove(n)
		e.Path = newPath + e.Path[len(path):]
		e.Version++
		st.put(e, gl)
	}
	e, _ := st.get(newPath)
	return e
}

// dropSubtree removes every local-layer entry of the subtree at root.
// Global-layer entries under it belong to the replica and stay.
func (st *store) dropSubtree(root string) {
	var drop []*node
	st.nodes[root].each(func(n *node) {
		if n.present && !n.gl {
			drop = append(drop, n)
		}
	})
	for _, n := range drop {
		st.remove(n)
	}
}

// replaceGL makes entries the global-layer replica: global-layer entries
// not among them are removed, the rest are overwritten in place, and
// local-layer entries (including the subtree roots under a replaced
// directory) are left alone.
func (st *store) replaceGL(entries []wire.Entry) {
	old := st.gl[:0]
	for _, n := range st.gl {
		if n.present && n.gl {
			n.gl = false
			old = append(old, n)
		}
	}
	st.gl = make([]*node, 0, len(entries))
	for _, e := range entries {
		st.put(e, true)
	}
	for _, n := range old {
		if !n.gl {
			st.remove(n)
		}
	}
}
