package core

import (
	"errors"
	"fmt"
	"math/rand"

	"d2tree/internal/namespace"
	"d2tree/internal/partition"
)

// Config assembles a complete D2-Tree deployment policy.
type Config struct {
	// GLProportion, when > 0, sizes the global layer as a fraction of all
	// namespace nodes (the evaluation uses 0.01). When zero, Split is used
	// with the explicit L0/U0 constraints instead.
	GLProportion float64
	// GLReplicas bounds the number of replicas each global-layer node gets
	// (the paper's future-work knob, Sec. VII). Zero or ≥ M replicates to
	// every server; smaller values cut update/consistency cost at the price
	// of extra forwarding hops and coarser load spreading. Replica windows
	// are staggered per node so GL load still spreads across the cluster.
	GLReplicas int
	// Split carries the explicit constraints used when GLProportion == 0.
	Split SplitConfig
	// Alloc tunes mirror division.
	Alloc AllocConfig
	// Capacities optionally sets heterogeneous server capacities; nil means
	// uniform capacity 1 per server.
	Capacities []float64
}

// DefaultConfig returns the evaluation defaults: a 1% global layer.
func DefaultConfig() Config {
	return Config{GLProportion: 0.01}
}

// ErrCapacityLen is returned when Capacities disagrees with the server count.
var ErrCapacityLen = errors.New("core: capacities length != m")

// D2Tree is a materialised double-layer partition of one namespace tree
// across M servers: the split result, the subtree allocation, the local
// index, and the equivalent partition.Assignment.
type D2Tree struct {
	tree  *namespace.Tree
	m     int
	cfg   Config
	split *SplitResult
	alloc Allocation
	index *LocalIndex
	asg   *partition.Assignment
	caps  []float64
}

// New splits the tree and allocates its subtrees over m servers.
func New(t *namespace.Tree, m int, cfg Config) (*D2Tree, error) {
	if t == nil {
		return nil, ErrNilTree
	}
	if m < 1 {
		return nil, fmt.Errorf("%w: m = %d", partition.ErrBadM, m)
	}
	caps := cfg.Capacities
	if caps == nil {
		caps = partition.Capacities(m, 1)
	}
	if len(caps) != m {
		return nil, fmt.Errorf("%w: %d vs %d", ErrCapacityLen, len(caps), m)
	}

	var (
		split *SplitResult
		err   error
	)
	if cfg.GLProportion > 0 {
		split, err = SplitProportion(t, cfg.GLProportion)
	} else {
		split, err = Split(t, cfg.Split)
	}
	if err != nil {
		return nil, err
	}

	d := &D2Tree{tree: t, m: m, cfg: cfg, split: split, caps: caps}
	if err := d.allocate(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *D2Tree) allocate() error {
	d.index = NewLocalIndex()
	asg, err := partition.NewAssignment(d.m)
	if err != nil {
		return err
	}
	r := d.cfg.GLReplicas
	if r <= 0 || r >= d.m {
		for id := range d.split.GL {
			asg.SetReplicated(id)
		}
	} else {
		// Staggered replica windows: node id gets servers
		// {id mod m, …, id+r-1 mod m}, spreading GL load while keeping the
		// per-node replica count at r.
		for id := range d.split.GL {
			servers := make([]partition.ServerID, r)
			for j := 0; j < r; j++ {
				servers[j] = partition.ServerID((int(id) + j) % d.m)
			}
			if err := asg.SetReplicas(id, servers); err != nil {
				return err
			}
		}
	}
	if len(d.split.Subtrees) > 0 {
		alloc, err := MirrorDivide(d.split.Subtrees, d.caps, d.cfg.Alloc)
		if err != nil {
			return fmt.Errorf("core: allocate: %w", err)
		}
		d.alloc = alloc
		for i, st := range d.split.Subtrees {
			srv := alloc[i]
			d.index.Set(st.Root, srv)
			if err := setOwner(asg, d.tree.Node(st.Root), srv); err != nil {
				return err
			}
		}
	} else {
		d.alloc = Allocation{}
	}
	d.asg = asg
	return nil
}

// Tree returns the underlying namespace tree.
func (d *D2Tree) Tree() *namespace.Tree { return d.tree }

// M returns the cluster size.
func (d *D2Tree) M() int { return d.m }

// Split returns the tree-splitting result.
func (d *D2Tree) Split() *SplitResult { return d.split }

// Index returns the local index over subtree roots.
func (d *D2Tree) Index() *LocalIndex { return d.index }

// Assignment returns the placement as a partition.Assignment. The returned
// value is live: dynamic adjustment mutates it.
func (d *D2Tree) Assignment() *partition.Assignment { return d.asg }

// Capacities returns the per-server capacity vector (copy).
func (d *D2Tree) Capacities() []float64 {
	out := make([]float64, len(d.caps))
	copy(out, d.caps)
	return out
}

// Subtrees returns the current local-layer subtrees (copy).
func (d *D2Tree) Subtrees() []Subtree {
	out := make([]Subtree, len(d.split.Subtrees))
	copy(out, d.split.Subtrees)
	return out
}

// SubtreeOwner returns the current owner of the i-th subtree.
func (d *D2Tree) SubtreeOwner(i int) (partition.ServerID, bool) {
	s, ok := d.alloc[i]
	return s, ok
}

// Route decides which server handles a query for node n, per Sec. IV-A2:
// local-layer nodes go to their subtree owner; global-layer nodes go to a
// uniformly random server (they are replicated everywhere). rng may be nil
// for deterministic server-0 routing of GL queries.
func (d *D2Tree) Route(n *namespace.Node, rng *rand.Rand) partition.ServerID {
	srv, global := d.index.Locate(n)
	if !global {
		return srv
	}
	if rs, ok := d.asg.Replicas(n.ID()); ok {
		if rng == nil {
			return rs[0]
		}
		return rs[rng.Intn(len(rs))]
	}
	if rng == nil {
		return 0
	}
	return partition.ServerID(rng.Intn(d.m))
}

// MoveSubtree reassigns subtree i to server dst, updating the allocation,
// the local index, and the assignment. It is the primitive Dynamic
// Adjustment builds on.
func (d *D2Tree) MoveSubtree(i int, dst partition.ServerID) error {
	if i < 0 || i >= len(d.split.Subtrees) {
		return fmt.Errorf("core: subtree index %d out of range", i)
	}
	if dst < 0 || int(dst) >= d.m {
		return fmt.Errorf("%w: %d", partition.ErrBadServer, dst)
	}
	st := d.split.Subtrees[i]
	d.alloc[i] = dst
	d.index.Set(st.Root, dst)
	return setOwner(d.asg, d.tree.Node(st.Root), dst)
}

// setOwner gives n and every node beneath it to srv.
func setOwner(asg *partition.Assignment, n *namespace.Node, srv partition.ServerID) error {
	if err := asg.SetOwner(n.ID(), srv); err != nil {
		return err
	}
	n.EachChild(func(c *namespace.Node) bool {
		_ = setOwner(asg, c, srv) // cannot fail: srv took n
		return true
	})
	return nil
}

// Scheme adapts D2-Tree to the partition.Scheme interface used by the
// replay simulator and the experiment harness. The zero value uses
// DefaultConfig. Scheme is stateful across Partition/Rebalance calls.
type Scheme struct {
	// Cfg is the deployment policy; the zero value means DefaultConfig.
	Cfg Config
	// Adjust tunes dynamic rebalancing; the zero value means
	// DefaultAdjusterConfig.
	Adjust AdjusterConfig

	last *D2Tree
}

var (
	_ partition.Scheme       = (*Scheme)(nil)
	_ partition.Rebalancer   = (*Scheme)(nil)
	_ partition.Router       = (*Scheme)(nil)
	_ partition.RenameCoster = (*Scheme)(nil)
)

// Name implements partition.Scheme.
func (s *Scheme) Name() string { return "D2-Tree" }

// Partition implements partition.Scheme.
func (s *Scheme) Partition(t *namespace.Tree, m int) (*partition.Assignment, error) {
	cfg := s.Cfg
	if cfg.GLProportion == 0 && cfg.Split == (SplitConfig{}) {
		cfg = DefaultConfig()
	}
	d, err := New(t, m, cfg)
	if err != nil {
		return nil, err
	}
	s.last = d
	return d.Assignment(), nil
}

// Rebalance implements partition.Rebalancer by running one Dynamic
// Adjustment round over the pending pool.
func (s *Scheme) Rebalance(t *namespace.Tree, asg *partition.Assignment, loads []float64) (int, error) {
	if s.last == nil || s.last.asg != asg {
		return 0, errors.New("core: Rebalance called before Partition")
	}
	adj := NewAdjuster(s.Adjust)
	return adj.Rebalance(s.last, loads)
}

// Last returns the most recent D2Tree produced by Partition (nil before the
// first call). Experiments use it to reach the split result and index.
func (s *Scheme) Last() *D2Tree { return s.last }

// RenameRelocations implements partition.RenameCoster: placement is keyed
// by the tree structure, not pathnames, so a rename relocates nothing — a
// global-layer rename costs one serialised replica update and a local-layer
// rename costs a local-index path refresh, but no metadata moves between
// servers.
func (s *Scheme) RenameRelocations(t *namespace.Tree, asg *partition.Assignment, n *namespace.Node) int {
	return 0
}

// Forwards implements partition.Router with the paper's access logic
// (Sec. IV-A2 / Eq. 7): global-layer targets are served by whichever MDS
// the request lands on (0 forwards); local-layer targets are forwarded once
// from the randomly chosen entry MDS to the subtree owner — (M−1)/M in
// expectation, the paper's "at most one hop".
func (s *Scheme) Forwards(t *namespace.Tree, asg *partition.Assignment, n *namespace.Node) float64 {
	if asg.IsReplicated(n.ID()) {
		return 0
	}
	m := asg.M()
	if m <= 1 {
		return 0
	}
	if rs, ok := asg.Replicas(n.ID()); ok {
		// Bounded GL replication: a random entry server already holds the
		// node with probability |replicas|/M.
		return float64(m-len(rs)) / float64(m)
	}
	return float64(m-1) / float64(m)
}
