// Package partition defines the common framework all five metadata
// partition schemes (D2-Tree and the four baselines) plug into: a placement
// Assignment, the jump model of Def. 1, per-server load accounting, and the
// Scheme/Rebalancer interfaces used by the replay simulator and the
// experiment harness.
package partition

import (
	"errors"
	"fmt"
	"slices"

	"d2tree/internal/namespace"
)

// ServerID identifies one metadata server in a cluster of M servers,
// numbered 0..M-1.
type ServerID int

// NoServer marks an unplaced node.
const NoServer ServerID = -1

// Errors reported by assignment operations.
var (
	ErrBadServer = errors.New("partition: server id out of range")
	ErrUnplaced  = errors.New("partition: node has no placement")
	ErrBadM      = errors.New("partition: need at least one server")
)

// Assignment records where every metadata node lives: replicated to all M
// servers (the global layer in D2-Tree), replicated to a bounded subset
// (the paper's future-work extension of thresholding GL replication), or
// owned by exactly one server. A node has one placement at a time: each
// setter replaces the last.
type Assignment struct {
	m int
	// at[id] is node id's placement: its owner, NoServer, or one of the
	// marks replicatedMark and partialMark. IDs past its end are unplaced.
	at []int32
	// partial holds the replica set of every node marked partialMark.
	partial           map[namespace.NodeID][]ServerID
	owned, replicated int
	// gen counts placement mutations; compiled RouteTables snapshot it to
	// detect staleness after a Rebalance round.
	gen uint64
}

// Placement marks in Assignment.at beside a node's owner and NoServer.
const (
	replicatedMark = -2 // on every server
	partialMark    = -3 // on the servers Assignment.partial lists
)

// NewAssignment creates an empty assignment over m servers.
func NewAssignment(m int) (*Assignment, error) {
	if m < 1 {
		return nil, fmt.Errorf("%w: m = %d", ErrBadM, m)
	}
	return &Assignment{m: m}, nil
}

// M returns the number of servers.
func (a *Assignment) M() int { return a.m }

// Generation returns the mutation counter: it advances on every successful
// SetOwner/SetReplicated/SetReplicas, so a compiled RouteTable can cheaply
// detect that its snapshot went stale.
func (a *Assignment) Generation() uint64 { return a.gen }

// loc is node id's placement mark.
func (a *Assignment) loc(id namespace.NodeID) int32 {
	if id < 0 || int(id) >= len(a.at) {
		return int32(NoServer)
	}
	return a.at[id]
}

// place gives node id the placement mark loc, replacing its last one.
func (a *Assignment) place(id namespace.NodeID, loc int32) {
	if int(id) >= len(a.at) {
		n := len(a.at)
		a.at = slices.Grow(a.at, int(id)+1-n)[:int(id)+1]
		for i := n; i < len(a.at); i++ {
			a.at[i] = int32(NoServer)
		}
	}
	switch old := a.at[id]; {
	case old >= 0:
		a.owned--
	case old == replicatedMark:
		a.replicated--
	case old == partialMark:
		delete(a.partial, id)
	}
	switch a.at[id] = loc; {
	case loc >= 0:
		a.owned++
	case loc == replicatedMark:
		a.replicated++
	}
	a.gen++
}

// SetOwner places a node on exactly one server, clearing any replication.
func (a *Assignment) SetOwner(id namespace.NodeID, s ServerID) error {
	if s < 0 || int(s) >= a.m {
		return fmt.Errorf("%w: %d (m=%d)", ErrBadServer, s, a.m)
	}
	a.place(id, int32(s))
	return nil
}

// SetReplicated marks a node as replicated to every server.
func (a *Assignment) SetReplicated(id namespace.NodeID) {
	a.place(id, replicatedMark)
}

// SetReplicas replicates a node to a bounded server subset — the paper's
// future-work knob "setting a threshold to control the number of
// replications of global layer". Replicating to every server is normalised
// to SetReplicated.
func (a *Assignment) SetReplicas(id namespace.NodeID, servers []ServerID) error {
	if len(servers) == 0 {
		return fmt.Errorf("%w: empty replica set", ErrBadServer)
	}
	cp := make([]ServerID, 0, len(servers))
	for _, s := range servers {
		if s < 0 || int(s) >= a.m {
			return fmt.Errorf("%w: %d (m=%d)", ErrBadServer, s, a.m)
		}
		if !slices.Contains(cp, s) {
			cp = append(cp, s)
		}
	}
	if len(cp) == a.m {
		a.SetReplicated(id)
		return nil
	}
	if len(cp) == 1 {
		return a.SetOwner(id, cp[0])
	}
	a.place(id, partialMark)
	if a.partial == nil {
		a.partial = make(map[namespace.NodeID][]ServerID)
	}
	a.partial[id] = cp
	return nil
}

// Replicas returns the bounded replica set of a partially replicated node.
func (a *Assignment) Replicas(id namespace.NodeID) ([]ServerID, bool) {
	if a.loc(id) != partialMark {
		return nil, false
	}
	return slices.Clone(a.partial[id]), true
}

// Owner returns the owning server for a non-replicated node.
// ok is false for replicated or unplaced nodes.
func (a *Assignment) Owner(id namespace.NodeID) (ServerID, bool) {
	if loc := a.loc(id); loc >= 0 {
		return ServerID(loc), true
	}
	return NoServer, false
}

// IsReplicated reports whether the node is replicated to all servers.
func (a *Assignment) IsReplicated(id namespace.NodeID) bool {
	return a.loc(id) == replicatedMark
}

// Placed reports whether the node has any placement.
func (a *Assignment) Placed(id namespace.NodeID) bool {
	return a.loc(id) != int32(NoServer)
}

// Holds reports whether server s can serve node id locally.
func (a *Assignment) Holds(id namespace.NodeID, s ServerID) bool {
	switch loc := a.loc(id); loc {
	case replicatedMark:
		return true
	case partialMark:
		return slices.Contains(a.partial[id], s)
	default:
		return loc >= 0 && ServerID(loc) == s
	}
}

// NumReplicated returns the number of replicated (global-layer) nodes.
func (a *Assignment) NumReplicated() int { return a.replicated }

// NumOwned returns the number of singly-placed nodes.
func (a *Assignment) NumOwned() int { return a.owned }

// ReplicatedIDs returns the replicated node IDs (unordered copy).
func (a *Assignment) ReplicatedIDs() []namespace.NodeID {
	out := make([]namespace.NodeID, 0, a.replicated)
	for id, loc := range a.at {
		if loc == replicatedMark {
			out = append(out, namespace.NodeID(id))
		}
	}
	return out
}

// Validate checks that every node of the tree is placed (Eq. 4 of the
// optimization problem: each node exactly once, which holding one placement
// per node makes structural).
func (a *Assignment) Validate(t *namespace.Tree) error {
	for _, n := range t.Nodes() {
		if !a.Placed(n.ID()) {
			return fmt.Errorf("%w: node %d (%s)", ErrUnplaced, n.ID(), t.Path(n))
		}
	}
	return nil
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	c := *a
	c.at = slices.Clone(a.at)
	if a.partial != nil {
		c.partial = make(map[namespace.NodeID][]ServerID, len(a.partial))
		for k, v := range a.partial {
			c.partial[k] = slices.Clone(v)
		}
	}
	return &c
}

// Jumps computes jp_j for one node under Def. 1, extended with the paper's
// treatment of replication: consecutive ancestors served by the same MDS
// cost nothing; a transition between two different concrete owners costs 1;
// a transition from a replicated prefix (served by a randomly chosen MDS)
// into a concretely owned subtree costs (M−1)/M in expectation — which the
// paper rounds to the "at most one hop" of Sec. IV-A1 and to jp_j = 1 in
// Eq. 7. A concrete→replicated step is free because the replica also lives
// on the current server.
func (a *Assignment) Jumps(n *namespace.Node) float64 {
	var (
		jumps    float64
		curWild  = false
		curBuf   [4]ServerID
		cur      = curBuf[:0]
		first    = true
		scratch1 = [1]ServerID{}
	)
	// Root-first: the wildcard charge is directional.
	n.EachAncestor(func(node *namespace.Node) bool {
		wild, set := a.locSet(node.ID(), scratch1[:0])
		switch {
		case first:
			curWild, cur = wild, append(cur[:0], set...)
			first = false
		case wild:
			// A replica is available on whichever server is serving now.
		case curWild:
			// Serving server uniform over all m; jump unless it happens to
			// be one of the next node's |set| holders.
			jumps += float64(a.m-len(set)) / float64(a.m)
			curWild, cur = false, append(cur[:0], set...)
		default:
			inter := intersectCount(cur, set)
			jumps += 1 - float64(inter)/float64(len(cur))
			if inter > 0 {
				cur = intersect(cur, set)
			} else {
				cur = append(cur[:0], set...)
			}
		}
		return true
	})
	return jumps
}

// locSet resolves a node's holder set. wild means "every server". Unplaced
// nodes map to the sentinel NoServer so they count as a distinct location.
func (a *Assignment) locSet(id namespace.NodeID, buf []ServerID) (bool, []ServerID) {
	switch loc := a.loc(id); loc {
	case replicatedMark:
		return true, nil
	case partialMark:
		return false, a.partial[id]
	default:
		return false, append(buf, ServerID(loc))
	}
}

func intersectCount(a, b []ServerID) int {
	n := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				n++
				break
			}
		}
	}
	return n
}

func intersect(a, b []ServerID) []ServerID {
	out := a[:0]
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// WeightedJumpSum returns Σ_j jp_j·p_j over every node of the tree — the
// denominator of Eq. 1. Pair with metrics.Locality.
func (a *Assignment) WeightedJumpSum(t *namespace.Tree) float64 {
	var sum float64
	for _, n := range t.Nodes() {
		if jp := a.Jumps(n); jp > 0 {
			sum += jp * float64(n.TotalPopularity())
		}
	}
	return sum
}

// Loads returns the static per-server load L_k = Σ p_j over owned nodes,
// with each replicated node contributing p_j/M to every server (global-layer
// queries are served by a uniformly random MDS).
func (a *Assignment) Loads(t *namespace.Tree) []float64 {
	loads := make([]float64, a.m)
	for _, n := range t.Nodes() {
		a.spread(loads, n.ID(), float64(n.TotalPopularity()))
	}
	return loads
}

// SelfLoads is like Loads but weights nodes by their individual popularity
// p'_j instead of the aggregate p_j. This counts each access exactly once
// and is what the replay simulator compares against.
func (a *Assignment) SelfLoads(t *namespace.Tree) []float64 {
	loads := make([]float64, a.m)
	for _, n := range t.Nodes() {
		if p := float64(n.SelfPopularity()); p != 0 {
			a.spread(loads, n.ID(), p)
		}
	}
	return loads
}

// spread adds node id's load p to the servers holding it, in equal shares.
func (a *Assignment) spread(loads []float64, id namespace.NodeID, p float64) {
	switch loc := a.loc(id); loc {
	case replicatedMark:
		share := p / float64(a.m)
		for i := range loads {
			loads[i] += share
		}
	case partialMark:
		rs := a.partial[id]
		share := p / float64(len(rs))
		for _, s := range rs {
			loads[s] += share
		}
	default:
		if loc >= 0 {
			loads[loc] += p
		}
	}
}

// Scheme is a metadata partition algorithm: given a namespace tree with
// popularity annotations and a cluster size, produce a placement.
type Scheme interface {
	// Name returns the scheme's display name as used in the paper's legends.
	Name() string
	// Partition computes a full placement of the tree across m servers.
	Partition(t *namespace.Tree, m int) (*Assignment, error)
}

// Router is implemented by schemes whose clients route requests with
// scheme-specific knowledge. Forwards returns the expected number of
// inter-MDS forwarding hops one operation on node n incurs at runtime —
// distinct from Def. 1 jumps (Assignment.Jumps), which measure placement
// locality: a static mount table routes directly (0 forwards) even though
// the placement still has jumps in the Eq. 1 sense.
type Router interface {
	// Forwards estimates runtime forwarding hops for one op on n.
	Forwards(t *namespace.Tree, asg *Assignment, n *namespace.Node) float64
}

// RenameCoster is implemented by schemes that can quantify the cost of
// renaming a directory: the number of metadata records that must relocate
// between servers. Pathname-hash schemes rehash the whole subtree (the
// "considerable overhead of rehashing metadata when renaming an upper
// directory" of Sec. II); subtree-based schemes update a mapping entry and
// move nothing.
type RenameCoster interface {
	// RenameRelocations returns how many records renaming n would relocate.
	RenameRelocations(t *namespace.Tree, asg *Assignment, n *namespace.Node) int
}

// Rebalancer is implemented by schemes that support dynamic load adjustment
// (dynamic subtree partitioning, DROP's HDLB, D2-Tree's pending pool).
type Rebalancer interface {
	// Rebalance migrates load between servers given fresh per-server loads.
	// It mutates asg in place and returns the number of nodes moved.
	Rebalance(t *namespace.Tree, asg *Assignment, loads []float64) (int, error)
}

// Capacities returns a uniform capacity vector of the given size — the
// homogeneous-cluster default used throughout the evaluation.
func Capacities(m int, c float64) []float64 {
	caps := make([]float64, m)
	for i := range caps {
		caps[i] = c
	}
	return caps
}
