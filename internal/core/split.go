// Package core implements the paper's primary contribution: the D2-Tree
// distributed double-layer namespace partition scheme — Tree-Splitting
// (Alg. 1), mirror-division Subtree-Allocation (Sec. IV-B, Fig. 4), the
// local index over inter nodes, and Dynamic-Adjustment via a pending pool
// with decaying access counters.
package core

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"

	"d2tree/internal/namespace"
)

// Errors reported by the splitter.
var (
	ErrInfeasible = errors.New("core: constraints unsatisfiable (locality bound " +
		"cannot be met within the update budget)")
	ErrNilTree = errors.New("core: nil namespace tree")
)

// SplitConfig carries the two constraints of the optimization problem
// (Eq. 6): a locality bound and an update-cost budget.
//
// Locality is expressed in the sum domain of Eq. 7: MaxLocalPopSum is the
// largest admissible Σ_{n_j ∈ LL} p_j, i.e. 1/L0. Splitting moves popular
// nodes into the global layer until the residual local-layer popularity sum
// drops to MaxLocalPopSum or the update budget MaxUpdateCost is exhausted.
type SplitConfig struct {
	// MaxLocalPopSum is 1/L0: the admissible Σ p_j over local-layer nodes.
	MaxLocalPopSum int64
	// MaxUpdateCost is U0: the admissible Σ u_j over global-layer nodes.
	MaxUpdateCost int64
}

// LocalityBound returns the L0 this config encodes (1/MaxLocalPopSum).
func (c SplitConfig) LocalityBound() float64 {
	if c.MaxLocalPopSum <= 0 {
		return 0
	}
	return 1 / float64(c.MaxLocalPopSum)
}

// Subtree is one intact local-layer unit Δ_i: the subtree hanging below the
// cut-line, identified by its root. Popularity s_i is the aggregate
// popularity of the root (Sec. IV-A1).
type Subtree struct {
	Root       namespace.NodeID
	Parent     namespace.NodeID // the inter node above the cut-line
	Popularity int64            // s_i = p(root)
	Size       int              // node count, informational
}

// SplitResult is the output of Tree-Splitting.
type SplitResult struct {
	// GL holds the global-layer node set.
	GL map[namespace.NodeID]struct{}
	// Inter lists the inter nodes: GL members with ≥1 child below the
	// cut-line (Sec. IV-A1, the yellow nodes of Fig. 2).
	Inter []namespace.NodeID
	// Subtrees are the local-layer units Δ_1..Δ_H.
	Subtrees []Subtree
	// LocalPopSum is Σ_{n_j ∈ LL} p_j — the Eq. 7 locality denominator the
	// greedy loop drove below the bound.
	LocalPopSum int64
	// UpdateCost is Σ_{n_j ∈ GL} u_j (Def. 4).
	UpdateCost int64
}

// InGL reports whether a node ended up in the global layer.
func (r *SplitResult) InGL(id namespace.NodeID) bool {
	_, ok := r.GL[id]
	return ok
}

// popHeap is a max-heap of candidate nodes ordered by aggregate popularity,
// replacing Alg. 1's per-iteration sort of S. Ties break on NodeID for
// determinism.
type popHeap []*namespace.Node

func (h popHeap) Len() int { return len(h) }
func (h popHeap) Less(i, j int) bool {
	if h[i].TotalPopularity() != h[j].TotalPopularity() {
		return h[i].TotalPopularity() > h[j].TotalPopularity()
	}
	return h[i].ID() < h[j].ID()
}
func (h popHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *popHeap) Push(x interface{}) { *h = append(*h, x.(*namespace.Node)) }
func (h *popHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Split runs Tree-Splitting (Alg. 1): starting from GL = {root}, repeatedly
// promote the highest-popularity frontier node into the global layer,
// charging its update cost against MaxUpdateCost and crediting its aggregate
// popularity against the local-layer popularity sum, until either the
// locality target is met or the update budget would be exceeded.
//
// ErrInfeasible is returned when the budget runs out before the locality
// bound is reached — Alg. 1's "return {}".
func Split(t *namespace.Tree, cfg SplitConfig) (*SplitResult, error) {
	if t == nil {
		return nil, ErrNilTree
	}
	root := t.Root()
	gl := map[namespace.NodeID]struct{}{root.ID(): {}}
	// L_tmp = Σ_{n_j ≠ root} p_j: the local-layer popularity sum with only
	// the root promoted.
	lTmp := localPopSum(t)
	uTmp := root.UpdateCost()

	frontier := popHeap(root.Children())
	heap.Init(&frontier)
	for lTmp > cfg.MaxLocalPopSum {
		if frontier.Len() == 0 {
			// Everything is already in GL; locality is perfect.
			break
		}
		nx, ok := heap.Pop(&frontier).(*namespace.Node)
		if !ok {
			return nil, fmt.Errorf("core: internal heap corruption")
		}
		uTmp += nx.UpdateCost()
		if uTmp > cfg.MaxUpdateCost {
			return nil, fmt.Errorf("%w: need Σu > %d to reach Σp_LL ≤ %d (stuck at %d)",
				ErrInfeasible, cfg.MaxUpdateCost, cfg.MaxLocalPopSum, lTmp)
		}
		gl[nx.ID()] = struct{}{}
		lTmp -= nx.TotalPopularity()
		nx.EachChild(func(c *namespace.Node) bool {
			heap.Push(&frontier, c)
			return true
		})
	}
	res := &SplitResult{GL: gl, LocalPopSum: lTmp, UpdateCost: uTmp}
	res.finish(t)
	return res, nil
}

// SplitTopK promotes exactly k nodes (including the root) into the global
// layer by the same greedy order, with no constraint checks. The experiments
// use it to pin the GL proportion ("1% of nodes") and then *report* the
// resulting L0 and U0 — exactly how Fig. 8 is produced.
func SplitTopK(t *namespace.Tree, k int) (*SplitResult, error) {
	if t == nil {
		return nil, ErrNilTree
	}
	if k < 1 {
		return nil, fmt.Errorf("core: SplitTopK k = %d, need >= 1", k)
	}
	root := t.Root()
	gl := map[namespace.NodeID]struct{}{root.ID(): {}}
	lTmp := localPopSum(t)
	uTmp := root.UpdateCost()
	frontier := popHeap(root.Children())
	heap.Init(&frontier)
	for len(gl) < k && frontier.Len() > 0 {
		nx, ok := heap.Pop(&frontier).(*namespace.Node)
		if !ok {
			return nil, fmt.Errorf("core: internal heap corruption")
		}
		gl[nx.ID()] = struct{}{}
		uTmp += nx.UpdateCost()
		lTmp -= nx.TotalPopularity()
		nx.EachChild(func(c *namespace.Node) bool {
			heap.Push(&frontier, c)
			return true
		})
	}
	res := &SplitResult{GL: gl, LocalPopSum: lTmp, UpdateCost: uTmp}
	res.finish(t)
	return res, nil
}

// SplitProportion promotes ⌈frac·N⌉ nodes into the global layer.
func SplitProportion(t *namespace.Tree, frac float64) (*SplitResult, error) {
	if t == nil {
		return nil, ErrNilTree
	}
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("core: SplitProportion frac = %v, need (0,1]", frac)
	}
	k := int(frac * float64(t.Len()))
	if k < 1 {
		k = 1
	}
	return SplitTopK(t, k)
}

// finish derives inter nodes and local-layer subtrees from the GL set.
func (r *SplitResult) finish(t *namespace.Tree) {
	r.Inter = r.Inter[:0]
	r.Subtrees = r.Subtrees[:0]
	for id := range r.GL {
		isInter := false
		t.Node(id).EachChild(func(c *namespace.Node) bool {
			if _, in := r.GL[c.ID()]; !in {
				isInter = true
				r.Subtrees = append(r.Subtrees, Subtree{
					Root:       c.ID(),
					Parent:     id,
					Popularity: c.TotalPopularity(),
					Size:       t.SubtreeSize(c),
				})
			}
			return true
		})
		if isInter {
			r.Inter = append(r.Inter, id)
		}
	}
	sortSubtrees(r.Subtrees)
	slices.Sort(r.Inter)
}

// localPopSum is Σ_{n_j ≠ root} p_j, the local-layer popularity sum with
// only the root in the global layer.
func localPopSum(t *namespace.Tree) int64 {
	var sum int64
	for id := 1; id < t.IDSpan(); id++ {
		if n := t.Node(namespace.NodeID(id)); n != nil {
			sum += n.TotalPopularity()
		}
	}
	return sum
}
