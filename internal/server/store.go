package server

import (
	"maps"
	"strings"

	"d2tree/internal/namespace"
	"d2tree/internal/wire"
)

// store is the MDS namespace, the global-layer replica and the local-layer
// subtrees the server owns, as one tree of namespace nodes, each
// global-layer node marked (namespace.Node.GL). What only an MDS needs is
// here: an index of every node by path, the list of the global layer's
// nodes, and the pruning of the kind-0 nodes that link entries whose parent
// is not held (DESIGN.md §8c). Server.mu guards it.
type store struct {
	nodes   map[string]*namespace.Node
	entries int // nodes holding an entry
	// gl lists the nodes put as global-layer entries since the last
	// replaceGL, so a refresh finds the layer without a scan. It can hold
	// a node twice, or one no longer marked; replaceGL skips those.
	gl []*namespace.Node
}

func newStore() *store { return &store{nodes: make(map[string]*namespace.Node)} }

// reserve sizes the index for n more nodes in one step.
func (st *store) reserve(n int) {
	nodes := make(map[string]*namespace.Node, len(st.nodes)+n)
	maps.Copy(nodes, st.nodes)
	st.nodes = nodes
}

// len returns the number of entries held.
func (st *store) len() int { return st.entries }

// get returns the node holding the entry at path, or nil: one probe.
func (st *store) get(path string) *namespace.Node {
	if n := st.nodes[path]; n != nil && n.Kind() != 0 {
		return n
	}
	return nil
}

// put stores e at e.Path as a global-layer or local-layer entry, replacing
// whatever entry was there. A kind-0 entry is none: it takes that away.
func (st *store) put(e wire.Entry, gl bool) {
	n := st.place(e.Path, nil)
	if e.Kind == 0 {
		st.remove(n, e.Path)
		return
	}
	if n.Kind() == 0 {
		st.entries++
	}
	if gl && !n.GL() {
		st.gl = append(st.gl, n)
	}
	n.SetEntry(&e)
	n.SetGL(gl)
}

// place returns the node at path, linking n, or a new kind-0 node, there
// beneath the node it places at path's parent when the index has none.
func (st *store) place(path string, n *namespace.Node) *namespace.Node {
	if held := st.nodes[path]; held != nil {
		return held
	}
	if pp := namespace.ParentPath(path); pp != "" {
		n = namespace.Attach(st.place(pp, nil), path[strings.LastIndexByte(path, '/')+1:], n)
	} else if n == nil { // the root
		n = new(namespace.Node)
	}
	st.nodes[path] = n
	return n
}

// remove takes the entry of n, at path, away, out of the global layer too,
// and unlinks n if that leaves a kind-0 node with nothing beneath it, and
// each ancestor that leaves so.
func (st *store) remove(n *namespace.Node, path string) {
	if n.Kind() != 0 {
		st.entries--
	}
	n.SetGL(false)
	for n.SetEntry(&wire.Entry{}); n != nil && n.Kind() == 0 && n.NumChildren() == 0; {
		delete(st.nodes, path)
		n, path = n.Detach(), namespace.ParentPath(path)
	}
}

// graft stores the nodes of trees as local-layer entries, as put would one
// by one, in one pass over one slab of them (namespace.SlabOf), indexing each
// node linked fresh under its path in one string (wire.PathsOf). A node whose
// place a held node has merges into it: the held node takes its entry into
// the local layer, unless it is kind 0, and its children are linked beneath
// the held node. A kind-0 node stays only while an entry beneath it needs it.
func (st *store) graft(trees []wire.Subtree) {
	slab, paths := namespace.SlabOf(trees), wire.PathsOf(trees)
	merged := map[*namespace.Node]*namespace.Node{} // a node met held → the held node
	for k := range slab {
		n, at := &slab[k], (*namespace.Node)(nil)
		if up := n.Parent(); up == nil { // a tree's root
			at = st.place(paths.At(k), n)
		} else {
			if to := merged[up]; to != nil {
				up = to
			}
			if at = namespace.Attach(up, n.Name(), n); at == n {
				st.nodes[paths.At(k)] = n
			}
		}
		if at != n {
			if merged[n] = at; n.Kind() != 0 {
				st.put(n.Entry(paths.At(k)), false)
			}
		} else if n.Kind() != 0 {
			st.entries++
		}
	}
	for k := len(slab) - 1; k >= 0; k-- {
		if n := &slab[k]; n.Kind() == 0 && st.nodes[paths.At(k)] == n {
			st.remove(n, paths.At(k))
		}
	}
}

// tree is the subtree at root as an install ships it, every node at and
// beneath root in pre-order (none when nothing is held there). With local
// set, for the snapshot image, a global-layer entry goes as kind 0.
func (st *store) tree(root string, local bool) wire.Subtree {
	t, size := wire.Subtree{Path: root}, 0
	if root == "/" { // every node the store holds
		size = len(st.nodes)
	}
	top := st.nodes[root]
	if top == nil {
		return t
	}
	t.Nodes = namespace.AppendSubtree(make([]wire.SubtreeNode, 0, size), top)
	if local && len(st.gl) > 0 {
		i := 0
		top.Walk(func(n *namespace.Node) bool { // AppendSubtree's order
			if sn := &t.Nodes[i]; n.GL() {
				*sn = wire.SubtreeNode{Parent: sn.Parent, Name: sn.Name}
			}
			i++
			return true
		})
	}
	return t
}

// rename moves the entry at path, and everything beneath it, to the sibling
// name newName (namespace.Node.Relink), re-keys the index beneath it, and
// returns its node: nil, with nothing changed, when path holds no entry.
func (st *store) rename(path, newName string) *namespace.Node {
	n := st.get(path)
	if n == nil || newName == n.Name() {
		return n
	}
	eachPath(n, path, func(p string, _ *namespace.Node) { delete(st.nodes, p) })
	st.entries -= n.Relink(newName)
	eachPath(n, path[:strings.LastIndexByte(path, '/')+1]+newName, func(p string, m *namespace.Node) { st.nodes[p] = m })
	return n
}

// dropSubtree removes every local-layer entry of the subtree at root, and
// unlinks each node that leaves nothing beneath it, each directory's
// children in one pass (namespace.Node.Prune). Global-layer entries belong
// to the replica and stay.
func (st *store) dropSubtree(root string) {
	top := st.nodes[root]
	eachPath(top, root, func(p string, n *namespace.Node) {
		if n.Kind() != 0 && !n.GL() {
			st.entries--
			n.SetEntry(&wire.Entry{})
		}
		if n.Prune(); n.Kind() == 0 && n.NumChildren() == 0 {
			delete(st.nodes, p)
		}
	})
	if top != nil && top.Kind() == 0 {
		st.remove(top, root)
	}
}

// replaceGL makes entries the global-layer replica: a global-layer entry
// not among them is removed, the rest are overwritten in place, and the
// local layer is left alone. A node that leaves the layer with nothing
// beneath it is unlinked, and so is each ancestor that then holds nothing,
// each directory's children in one pass (namespace.Node.Prune).
func (st *store) replaceGL(entries []wire.Entry) {
	old := st.gl[:0] // the layer now, each node once
	for _, n := range st.gl {
		if n.GL() {
			n.SetGL(false)
			old = append(old, n)
		}
	}
	st.gl = make([]*namespace.Node, 0, len(entries))
	for _, e := range entries {
		st.put(e, true)
	}
	gone, size := old[:0], 0 // the nodes leaving the layer, and a bound on their paths' length
	for _, n := range old {
		if !n.GL() && n.Kind() != 0 { // not taken away by a kind-0 entry
			gone = append(gone, n)
			n.EachAncestor(func(a *namespace.Node) bool { size += 1 + len(a.Name()); return true })
		}
	}
	var paths strings.Builder
	paths.Grow(size)
	for _, n := range gone {
		st.entries--
		if n.SetEntry(&wire.Entry{}); n.NumChildren() == 0 {
			start := paths.Len()
			n.WritePath(&paths)
			delete(st.nodes, paths.String()[start:])
		}
	}
	for _, n := range gone {
		// A node still linked with nothing beneath it goes with its siblings,
		// in one pass over their parent's children, and a parent that leaves
		// holding nothing goes the same way. A node a sibling's pass unlinked
		// is skipped.
		for n.Kind() == 0 && n.NumChildren() == 0 {
			up := n.Parent()
			if up == nil || up.Child(n.Name()) != n {
				break
			}
			up.Prune()
			if n = up; n.Kind() == 0 && n.NumChildren() == 0 {
				delete(st.nodes, n.Path())
			}
		}
	}
}

// eachPath calls fn on every node beneath n, with its path, and then on n,
// at path: children before their parent; nothing when n is nil. The paths
// beneath n are substrings of one string, built in one allocation (a load's
// index keys are built so too). fn may unlink the children of the node it
// is given (namespace.Node.Prune), and must link none.
func eachPath(n *namespace.Node, path string, fn func(path string, n *namespace.Node)) {
	if n == nil {
		return
	}
	dir := strings.TrimSuffix(path, "/")
	var b strings.Builder
	b.Grow(pathsLen(n, len(dir)))
	appendPaths(&b, n, path, dir, fn)
}

// pathsLen is the length of the paths of every node beneath n, whose path
// is base bytes long ("/" counting as none).
func pathsLen(n *namespace.Node, base int) (size int) {
	n.EachChild(func(c *namespace.Node) bool {
		l := base + 1 + len(c.Name())
		size += l + pathsLen(c, l)
		return true
	})
	return size
}

// appendPaths calls fn on every node beneath n and then on n, at path,
// writing each one's path to b (eachPath): dir, the prefix of its
// children's paths, is path but for the root's slash.
func appendPaths(b *strings.Builder, n *namespace.Node, path, dir string, fn func(path string, n *namespace.Node)) {
	n.EachChild(func(c *namespace.Node) bool {
		start := b.Len()
		b.WriteString(dir)
		b.WriteByte('/')
		b.WriteString(c.Name())
		p := b.String()[start:]
		appendPaths(b, c, p, p, fn)
		return true
	})
	fn(path, n)
}
