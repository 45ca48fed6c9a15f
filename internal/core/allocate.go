package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"d2tree/internal/partition"
)

// Errors reported by the allocator.
var (
	ErrNoCapacity  = errors.New("core: no positive-capacity server")
	ErrNoSubtrees  = errors.New("core: nothing to allocate")
	ErrBadCapacity = errors.New("core: capacities must be positive")
)

// Allocation maps each local-layer subtree root to its owning server.
type Allocation map[int]partition.ServerID // index into the subtree slice

// AllocConfig tunes mirror division.
type AllocConfig struct {
	// SampleSize, when > 0, estimates the subtree-popularity CDF from a
	// uniform random sample of that many subtrees instead of the full set —
	// the sampling whose accuracy Thm. 3 bounds. Zero uses the exact CDF.
	SampleSize int
	// Seed drives sampling. Ignored when SampleSize is 0.
	Seed int64
	// Sample optionally supplies externally drawn subtree indices (e.g.
	// from RandomWalkSample) to estimate the popularity scale from,
	// overriding SampleSize.
	Sample []int
}

// MirrorDivide implements Subtree-Allocation (Sec. IV-B, Fig. 4): place the
// subtrees on the cumulative popularity axis X, place the servers on the
// cumulative remaining-capacity axis Y, and give each server the subtrees
// whose X index falls inside its Y interval — so every server receives
// popularity proportional to its remaining capacity.
//
// Subtrees are laid on the axis in descending popularity (ties by root ID)
// which keeps the division deterministic; remaining capacities are taken in
// server order. Servers with non-positive remaining capacity receive
// nothing unless every server is saturated, in which case capacities are
// re-normalised over their positive parts.
func MirrorDivide(subtrees []Subtree, remaining []float64, cfg AllocConfig) (Allocation, error) {
	if len(subtrees) == 0 {
		return nil, ErrNoSubtrees
	}
	if len(remaining) == 0 {
		return nil, ErrNoCapacity
	}
	// Cumulative Y axis over positive remaining capacities.
	var totalCap float64
	for _, r := range remaining {
		if r > 0 {
			totalCap += r
		}
	}
	if totalCap <= 0 {
		return nil, ErrNoCapacity
	}

	order := rankOrder(subtrees)

	var totalPop float64
	if len(cfg.Sample) > 0 {
		// Externally drawn sample (e.g. random-walk) estimates the scale.
		var sampleSum float64
		n := 0
		for _, i := range cfg.Sample {
			if i < 0 || i >= len(subtrees) {
				return nil, fmt.Errorf("core: sample index %d out of range", i)
			}
			sampleSum += float64(subtrees[i].Popularity)
			n++
		}
		totalPop = sampleSum / float64(n) * float64(len(subtrees))
	} else if cfg.SampleSize > 0 && cfg.SampleSize < len(subtrees) {
		// Estimate mean popularity from a uniform sample and extrapolate —
		// the estimated F̃ scales the X axis; DKW bounds the error.
		rng := rand.New(rand.NewSource(cfg.Seed))
		idx := rng.Perm(len(subtrees))[:cfg.SampleSize]
		var sampleSum float64
		for _, i := range idx {
			sampleSum += float64(subtrees[i].Popularity)
		}
		totalPop = sampleSum / float64(cfg.SampleSize) * float64(len(subtrees))
	} else {
		for i := range subtrees {
			totalPop += float64(subtrees[i].Popularity)
		}
	}
	if totalPop <= 0 {
		// All-zero popularity: spread round-robin by capacity order.
		alloc := make(Allocation, len(subtrees))
		srv := positiveServers(remaining)
		for i, si := range order {
			alloc[si] = srv[i%len(srv)]
		}
		return alloc, nil
	}

	// Walk both cumulative axes simultaneously.
	alloc := make(Allocation, len(subtrees))
	srv := positiveServers(remaining)
	cur := 0
	capEdge := remaining[int(srv[cur])] / totalCap // Y index of server boundary
	var x float64
	for _, si := range order {
		mid := (x + float64(subtrees[si].Popularity)/totalPop/2) // X of this subtree's center
		for cur < len(srv)-1 && mid > capEdge {
			cur++
			capEdge += remaining[int(srv[cur])] / totalCap
		}
		alloc[si] = srv[cur]
		x += float64(subtrees[si].Popularity) / totalPop
	}
	return alloc, nil
}

func positiveServers(remaining []float64) []partition.ServerID {
	srv := make([]partition.ServerID, 0, len(remaining))
	for i, r := range remaining {
		if r > 0 {
			srv = append(srv, partition.ServerID(i))
		}
	}
	if len(srv) == 0 {
		for i := range remaining {
			srv = append(srv, partition.ServerID(i))
		}
	}
	return srv
}

// GreedyLPT is the ablation baseline allocator: longest-processing-time
// first — assign each subtree (descending popularity) to the server with the
// lowest load-to-capacity ratio.
func GreedyLPT(subtrees []Subtree, capacities []float64) (Allocation, error) {
	if len(subtrees) == 0 {
		return nil, ErrNoSubtrees
	}
	if len(capacities) == 0 {
		return nil, ErrNoCapacity
	}
	for i, c := range capacities {
		if c <= 0 {
			return nil, fmt.Errorf("%w: C[%d] = %v", ErrBadCapacity, i, c)
		}
	}
	order := rankOrder(subtrees)
	loads := make([]float64, len(capacities))
	alloc := make(Allocation, len(subtrees))
	for _, si := range order {
		best := 0
		for k := 1; k < len(capacities); k++ {
			if loads[k]/capacities[k] < loads[best]/capacities[best] {
				best = k
			}
		}
		alloc[si] = partition.ServerID(best)
		loads[best] += float64(subtrees[si].Popularity)
	}
	return alloc, nil
}

// AllocationLoads returns the per-server popularity sums of an allocation.
func AllocationLoads(subtrees []Subtree, alloc Allocation, m int) []float64 {
	loads := make([]float64, m)
	for i, srv := range alloc {
		if int(srv) < m {
			loads[srv] += float64(subtrees[i].Popularity)
		}
	}
	return loads
}

// sortSubtrees orders subtrees by descending popularity then root ID —
// the canonical presentation order used throughout the package.
func sortSubtrees(subtrees []Subtree) {
	slices.SortFunc(subtrees, byRank)
}

// byRank orders subtrees by descending popularity, then by root ID. Roots
// are distinct, so no two subtrees tie and any sort by it is stable.
func byRank(a, b Subtree) int {
	if c := cmp.Compare(b.Popularity, a.Popularity); c != 0 {
		return c
	}
	return cmp.Compare(a.Root, b.Root)
}

// rankOrder is the indices of subtrees in byRank order, ties (a root listed
// twice) in index order.
func rankOrder(subtrees []Subtree) []int {
	order := make([]int, len(subtrees))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := byRank(subtrees[a], subtrees[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}
