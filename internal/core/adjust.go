package core

import (
	"errors"
	"fmt"
	"sort"

	"d2tree/internal/metrics"
	"d2tree/internal/partition"
)

// AdjusterConfig tunes Dynamic-Adjustment.
type AdjusterConfig struct {
	// Slack is the tolerated relative overload before a server starts
	// releasing subtrees into the pending pool: a server is overloaded when
	// L_k > (1+Slack)·μ·C_k. Zero means the 0.05 default.
	Slack float64
}

// DefaultAdjusterConfig mirrors the evaluation setup.
func DefaultAdjusterConfig() AdjusterConfig {
	return AdjusterConfig{Slack: 0.05}
}

// Adjuster runs Dynamic-Adjustment rounds: overloaded servers publish
// subtrees into the pending pool sized to bring them back under the slack
// bound, and light servers pull them by mirror division in proportion to
// their load deficit (Sec. IV-B). Plan decides a round; the simulator
// applies it to a D2Tree through Rebalance and the live Monitor turns it
// into transfer commands.
type Adjuster struct {
	cfg AdjusterConfig
}

// NewAdjuster builds an adjuster, applying defaults for zero fields.
func NewAdjuster(cfg AdjusterConfig) *Adjuster {
	if cfg.Slack <= 0 {
		cfg.Slack = DefaultAdjusterConfig().Slack
	}
	return &Adjuster{cfg: cfg}
}

// ErrLoadsLen is returned when the measured loads disagree with cluster size.
var ErrLoadsLen = errors.New("core: loads length != m")

// AnyServer as a PlanInput.Exclude value bars a subtree from every
// destination: it stays where it is this round.
const AnyServer partition.ServerID = -1

// PlanInput is everything one Dynamic-Adjustment round depends on.
type PlanInput struct {
	// Subtrees are the local-layer units; Owners[i] currently serves
	// Subtrees[i].
	Subtrees []Subtree
	Owners   []partition.ServerID
	// Loads and Caps are the measured load L_k and capacity C_k per server,
	// in one unit with Subtree.Popularity. A server of capacity 0 (dead or
	// not yet joined) neither sheds nor receives.
	Loads, Caps []float64
	// Exclude lists placements the round must not produce, keyed by subtree
	// index: a server the subtree must not move to, or AnyServer. Excluded
	// subtrees still count toward their owner's popularity.
	Exclude map[int]partition.ServerID
	// Alloc tunes the mirror division of the pooled subtrees.
	Alloc AllocConfig
}

// Move is one planned migration: Subtree (an index into PlanInput.Subtrees)
// leaves From for To, expected to take Load of From's load along.
type Move struct {
	Subtree  int
	From, To partition.ServerID
	Load     float64
}

// Variance returns Eq. 2's variance term over the servers that have
// capacity, for the input's loads as the moves would leave them (nil: as
// they are). Comparing the two tells whether a plan is predicted to help.
func (in PlanInput) Variance(moves []Move) float64 {
	loads := append([]float64(nil), in.Loads...)
	for _, mv := range moves {
		loads[mv.From] -= mv.Load
		loads[mv.To] += mv.Load
	}
	var l, c []float64
	for k := range in.Caps {
		if in.Caps[k] > 0 {
			l, c = append(l, loads[k]), append(c, in.Caps[k])
		}
	}
	v, _ := metrics.BalanceVariance(l, c) // fails only with no capacity at all: nothing to balance
	return v
}

// Plan decides one adjustment round without applying it. It is a pure
// function of its input: the same input gives the same moves.
func (a *Adjuster) Plan(in PlanInput) ([]Move, error) {
	m := len(in.Caps)
	if len(in.Loads) != m {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLoadsLen, len(in.Loads), m)
	}
	if len(in.Owners) != len(in.Subtrees) {
		return nil, fmt.Errorf("core: %d owners for %d subtrees", len(in.Owners), len(in.Subtrees))
	}
	caps := in.Caps
	var sumL, sumC float64
	for k, c := range caps {
		if c < 0 {
			return nil, fmt.Errorf("%w: C[%d] = %v", ErrBadCapacity, k, c)
		}
		sumL += in.Loads[k]
		sumC += c
	}
	if sumC == 0 {
		return nil, ErrNoCapacity
	}
	mu := sumL / sumC // the ideal load factor μ = Σ L_k / Σ C_k
	if mu == 0 {
		return nil, nil // no load at all
	}

	// Phase 1: overloaded servers offer subtrees into the pending pool.
	pool := NewPendingPool()
	adjusted := make([]float64, m)
	copy(adjusted, in.Loads)
	// Estimate each server's total LL popularity so a released subtree's
	// load shed can be scaled from popularity space into load space.
	llPop := make([]float64, m)
	bySrv := make([][]int, m)
	for i, srv := range in.Owners {
		if srv < 0 || int(srv) >= m {
			return nil, fmt.Errorf("%w: subtree %d owned by %d", partition.ErrBadServer, i, srv)
		}
		llPop[srv] += float64(in.Subtrees[i].Popularity)
		bySrv[srv] = append(bySrv[srv], i)
	}
	for k := 0; k < m; k++ {
		limit := (1 + a.cfg.Slack) * mu * caps[k]
		if adjusted[k] <= limit || llPop[k] == 0 {
			continue
		}
		// Release smallest subtrees first: cheapest moves, finest control.
		idxs := bySrv[k]
		sort.Slice(idxs, func(x, y int) bool {
			sx, sy := in.Subtrees[idxs[x]], in.Subtrees[idxs[y]]
			if sx.Popularity != sy.Popularity {
				return sx.Popularity < sy.Popularity
			}
			return sx.Root < sy.Root
		})
		scale := adjusted[k] / llPop[k] // load per unit popularity, upper bound
		if scale > 1 {
			scale = 1
		}
		for _, i := range idxs {
			if adjusted[k] <= limit {
				break
			}
			if barred, ok := in.Exclude[i]; ok && barred == AnyServer {
				continue
			}
			st := in.Subtrees[i]
			load := float64(st.Popularity) * scale
			pool.Offer(PendingEntry{SubtreeIdx: i, Subtree: st, From: partition.ServerID(k), Load: load})
			adjusted[k] -= load
		}
	}
	entries := pool.Drain()
	if len(entries) == 0 {
		return nil, nil
	}

	// Phase 2: light servers pull pooled subtrees by mirror division,
	// proportional to their remaining deficit (Eq. 10 / Fig. 4).
	deficits := make([]float64, m)
	anyDeficit := false
	for k := 0; k < m; k++ {
		if def := mu*caps[k] - adjusted[k]; def > 0 {
			deficits[k] = def
			anyDeficit = true
		}
	}
	if !anyDeficit {
		copy(deficits, caps)
	}
	subtrees := make([]Subtree, len(entries))
	for i, e := range entries {
		subtrees[i] = e.Subtree
	}
	alloc, err := MirrorDivide(subtrees, deficits, in.Alloc)
	if err != nil {
		return nil, fmt.Errorf("core: rebalance pull: %w", err)
	}
	var moves []Move
	for i, e := range entries {
		dst := alloc[i]
		if barred, ok := in.Exclude[e.SubtreeIdx]; ok && dst == barred {
			// Divide this one subtree again with the barred server's deficit
			// taken off the axis; with no other taker it stays put.
			rest := append([]float64(nil), deficits...)
			rest[barred] = 0
			alt, err := MirrorDivide(subtrees[i:i+1], rest, in.Alloc)
			if err != nil {
				continue
			}
			dst = alt[0]
		}
		if dst == e.From {
			continue
		}
		moves = append(moves, Move{Subtree: e.SubtreeIdx, From: e.From, To: dst, Load: e.Load})
	}
	return moves, nil
}

// Rebalance performs one adjustment round against measured per-server loads
// and returns the number of subtrees migrated.
func (a *Adjuster) Rebalance(d *D2Tree, loads []float64) (int, error) {
	if d == nil {
		return 0, ErrNilTree
	}
	owners := make([]partition.ServerID, len(d.split.Subtrees))
	for i := range owners {
		owners[i] = d.alloc[i]
	}
	moves, err := a.Plan(PlanInput{
		Subtrees: d.split.Subtrees, Owners: owners,
		Loads: loads, Caps: d.caps, Alloc: d.cfg.Alloc,
	})
	if err != nil {
		return 0, err
	}
	for n, mv := range moves {
		if err := d.MoveSubtree(mv.Subtree, mv.To); err != nil {
			return n, err
		}
	}
	return len(moves), nil
}

// Resplit re-runs Tree-Splitting and Subtree-Allocation against the tree's
// current popularity — the infrequent global-layer re-evaluation of
// Sec. IV-B ("typically once a day"). The assignment object is mutated in
// place so holders of d.Assignment() observe the new layout.
func (d *D2Tree) Resplit() error {
	var (
		split *SplitResult
		err   error
	)
	if d.cfg.GLProportion > 0 {
		split, err = SplitProportion(d.tree, d.cfg.GLProportion)
	} else {
		split, err = Split(d.tree, d.cfg.Split)
	}
	if err != nil {
		return err
	}
	old := d.asg
	d.split = split
	if err := d.allocate(); err != nil {
		return err
	}
	// Copy the fresh placement into the original assignment so external
	// references stay valid.
	*old = *d.asg
	d.asg = old
	return nil
}
