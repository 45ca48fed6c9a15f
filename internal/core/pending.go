package core

import (
	"sort"
	"sync"

	"d2tree/internal/partition"
)

// PendingEntry is one subtree offered for migration: the Monitor's pending
// pool holds "information of subtrees from relatively overloaded MDS's"
// (Sec. IV-B).
type PendingEntry struct {
	// SubtreeIdx indexes into the D2Tree's subtree slice.
	SubtreeIdx int
	// Subtree is a copy of the offered subtree's descriptor.
	Subtree Subtree
	// From is the overloaded server releasing it.
	From partition.ServerID
	// Load is the share of From's load the subtree is expected to take along.
	Load float64
}

// PendingPool is the Monitor-side queue of migratable subtrees. Lightly
// loaded (or newly joined) servers pull from it by mirror division. Safe for
// concurrent use.
type PendingPool struct {
	mu      sync.Mutex
	entries []PendingEntry
}

// NewPendingPool returns an empty pool.
func NewPendingPool() *PendingPool { return &PendingPool{} }

// Offer adds a subtree to the pool.
func (p *PendingPool) Offer(e PendingEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = append(p.entries, e)
}

// Len returns the number of pooled subtrees.
func (p *PendingPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Drain removes and returns every pooled entry, sorted by descending
// popularity (ties by subtree root) so mirror division sees the canonical
// order.
func (p *PendingPool) Drain() []PendingEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.entries
	p.entries = nil
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Subtree, out[j].Subtree
		if a.Popularity != b.Popularity {
			return a.Popularity > b.Popularity
		}
		return a.Root < b.Root
	})
	return out
}

// Peek returns a copy of the pooled entries without removing them.
func (p *PendingPool) Peek() []PendingEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PendingEntry, len(p.entries))
	copy(out, p.entries)
	return out
}
