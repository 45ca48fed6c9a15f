// Package rootindex is the local index every MDS and client keeps "to allow a
// quick search" for an inter node's subtrees (Sec. IV-A1, IV-A2): subtree
// root path → owning MDS address, keyed a second time by the directory above
// the cut, so the subtree roots under one inter node are found without
// visiting the others.
package rootindex

import (
	"slices"
	"strings"

	"d2tree/internal/namespace"
)

// Index maps subtree roots to owners. It has no lock of its own: the owner
// guards it with the lock that guards the rest of its cluster state, and the
// reads neither allocate nor rebuild anything.
type Index struct {
	owner map[string]string   // subtree root path → MDS addr
	kids  map[string][]string // directory → the roots directly under it, sorted
}

// New builds an index over owner and takes ownership of the map: the caller
// hands over a freshly decoded response and must not touch it again.
func New(owner map[string]string) *Index {
	if owner == nil {
		owner = make(map[string]string)
	}
	ix := &Index{owner: owner, kids: make(map[string][]string)}
	for root := range owner {
		dir := namespace.ParentPath(root)
		ix.kids[dir] = append(ix.kids[dir], root)
	}
	for _, roots := range ix.kids {
		slices.Sort(roots)
	}
	return ix
}

// Set records, or moves, one subtree root's owner.
func (ix *Index) Set(root, addr string) {
	if _, known := ix.owner[root]; !known {
		dir := namespace.ParentPath(root)
		roots := ix.kids[dir]
		at, _ := slices.BinarySearch(roots, root)
		ix.kids[dir] = slices.Insert(roots, at, root)
	}
	ix.owner[root] = addr
}

// Get returns the owner recorded for exactly this subtree root.
func (ix *Index) Get(root string) (addr string, ok bool) {
	addr, ok = ix.owner[root]
	return addr, ok
}

// Owner resolves the MDS responsible for path: the longest indexed
// subtree-root prefix wins, one map probe per path component. ok is false
// when no prefix is indexed, which places the path in the global layer.
func (ix *Index) Owner(path string) (addr string, ok bool) {
	for cur := path; ; {
		if a, ok := ix.owner[cur]; ok {
			return a, true
		}
		i := strings.LastIndexByte(cur, '/')
		if i <= 0 {
			return "", false
		}
		cur = cur[:i]
	}
}

// ChildRoots returns the subtree roots directly under dir, sorted by path.
// The slice is the index's own: callers read it under the lock that guards
// the index and do not keep or modify it.
func (ix *Index) ChildRoots(dir string) []string {
	return ix.kids[dir]
}

// Len returns the number of indexed subtree roots.
func (ix *Index) Len() int { return len(ix.owner) }

// Map returns a copy of the root → owner mapping (tests, tools).
func (ix *Index) Map() map[string]string {
	out := make(map[string]string, len(ix.owner))
	for root, addr := range ix.owner {
		out[root] = addr
	}
	return out
}
