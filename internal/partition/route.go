package partition

import (
	"errors"
	"fmt"

	"d2tree/internal/namespace"
)

// ErrStaleRoutes is returned when a RouteTable is used against an
// Assignment that mutated after compilation.
var ErrStaleRoutes = errors.New("partition: route table is stale")

// RouteTable is a compiled, read-only view of one Assignment (plus the
// scheme's optional Router) flattened into dense slices indexed by NodeID.
// It replaces the per-event map lookups and ancestor walks of the
// interpretive replay path with O(1) array indexing:
//
//   - owner / replicated / replica spans — where each node is served;
//   - forwards — the scheme's runtime forwarding hops per node (Router, or
//     Def. 1 jumps when the scheme routes without client knowledge);
//   - jumps — Def. 1 jp_j per node, computed in one DFS over the tree
//     instead of re-walking the ancestor chain per node;
//   - the weighted jump sum Σ jp_j·p_j of Eq. 1, memoized.
//
// A table is a snapshot: it is compiled against one Assignment generation
// and Valid reports false once the assignment mutates (e.g. a Rebalance
// round), at which point callers recompile. The table itself is immutable
// after compilation and safe for concurrent readers.
type RouteTable struct {
	asg *Assignment
	gen uint64
	m   int

	known      []bool     // node exists in the compiled tree
	owner      []ServerID // owning server; NoServer unless singly owned
	replicated []bool     // replicated to every server (global layer)
	repOff     []int32    // offset of the node's replica span in replicas
	repLen     []int32    // length of that span; 0 = not partially replicated
	replicas   []ServerID // shared backing array for all replica spans

	forwards []float64
	jumps    []float64
	wjs      float64
}

// CompileRoutes flattens asg (and router, when non-nil) over t into a
// RouteTable in one DFS pass. Unplaced nodes compile — they are reported
// lazily, only if a replayed event targets one — mirroring the interpretive
// path's semantics.
func CompileRoutes(t *namespace.Tree, asg *Assignment, router Router) (*RouteTable, error) {
	if t == nil {
		return nil, errors.New("partition: compile routes: nil tree")
	}
	if asg == nil {
		return nil, errors.New("partition: compile routes: nil assignment")
	}
	span := t.IDSpan()
	rt := &RouteTable{
		asg:        asg,
		gen:        asg.Generation(),
		m:          asg.m,
		known:      make([]bool, span),
		owner:      make([]ServerID, span),
		replicated: make([]bool, span),
		repOff:     make([]int32, span),
		repLen:     make([]int32, span),
		forwards:   make([]float64, span),
		jumps:      make([]float64, span),
	}
	for i := range rt.owner {
		rt.owner[i] = NoServer
	}
	for id, rs := range asg.partial {
		if int(id) >= span {
			continue
		}
		rt.repOff[id] = int32(len(rt.replicas))
		rt.repLen[id] = int32(len(rs))
		rt.replicas = append(rt.replicas, rs...)
	}
	rt.compileJumps(t, asg)
	// Placement, forwards and the Eq. 1 sum in dense-ID order: the weighted
	// sum must accumulate in the same order as Assignment.WeightedJumpSum so
	// the memoized locality is bit-identical to the interpretive path's.
	for id := 0; id < span; id++ {
		n := t.Node(namespace.NodeID(id))
		if n == nil {
			continue
		}
		rt.known[id] = true
		if o, ok := asg.Owner(n.ID()); ok {
			rt.owner[id] = o
		}
		rt.replicated[id] = asg.IsReplicated(n.ID())
		if router != nil {
			rt.forwards[id] = router.Forwards(t, asg, n)
		} else {
			rt.forwards[id] = rt.jumps[id]
		}
		if jp := rt.jumps[id]; jp > 0 {
			rt.wjs += jp * float64(n.TotalPopularity())
		}
	}
	return rt, nil
}

// compileJumps fills rt.jumps with Def. 1 jp_j for every node in a single
// DFS, threading the (wildcard, holder-set, jumps-so-far) state of
// Assignment.Jumps down the tree instead of re-walking the ancestor chain
// per node. Each node performs exactly the transition the per-node
// algorithm performs at its depth, in the same order, so the values are
// bit-identical to Assignment.Jumps.
func (rt *RouteTable) compileJumps(t *namespace.Tree, asg *Assignment) {
	var scratch [1]ServerID
	var dfs func(n *namespace.Node, wild bool, cur []ServerID, jumps float64)
	dfs = func(n *namespace.Node, wild bool, cur []ServerID, jumps float64) {
		nodeWild, set := asg.locSet(n.ID(), scratch[:0])
		switch {
		case n.Parent() == nil: // root initialises the state
			wild, cur = nodeWild, cloneServers(set)
		case nodeWild:
			// A replica is available on whichever server is serving now.
		case wild:
			jumps += float64(rt.m-len(set)) / float64(rt.m)
			wild, cur = false, cloneServers(set)
		default:
			inter := intersectCount(cur, set)
			jumps += 1 - float64(inter)/float64(len(cur))
			switch {
			case inter == len(cur):
				// cur ∩ set == cur: the holder set is unchanged, no copy.
			case inter > 0:
				cur = intersectInto(make([]ServerID, 0, inter), cur, set)
			default:
				cur = cloneServers(set)
			}
		}
		rt.jumps[n.ID()] = jumps
		n.EachChild(func(c *namespace.Node) bool {
			dfs(c, wild, cur, jumps)
			return true
		})
	}
	dfs(t.Root(), false, nil, 0)
}

// cloneServers copies a holder set so sibling subtrees cannot alias it.
func cloneServers(s []ServerID) []ServerID {
	out := make([]ServerID, len(s))
	copy(out, s)
	return out
}

// intersectInto appends a ∩ b to dst without mutating either input.
func intersectInto(dst, a, b []ServerID) []ServerID {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				dst = append(dst, x)
				break
			}
		}
	}
	return dst
}

// Valid reports whether the table still describes asg: same assignment,
// same generation. Any SetOwner/SetReplicated/SetReplicas since compilation
// (a Rebalance round, for instance) invalidates it.
func (rt *RouteTable) Valid(asg *Assignment) bool {
	return rt.asg == asg && rt.gen == asg.Generation()
}

// M returns the cluster size the table was compiled for.
func (rt *RouteTable) M() int { return rt.m }

// Span returns the node-ID space the table covers.
func (rt *RouteTable) Span() int { return len(rt.known) }

// Known reports whether id was a live node at compile time.
func (rt *RouteTable) Known(id namespace.NodeID) bool {
	return id >= 0 && int(id) < len(rt.known) && rt.known[id]
}

// Forwards returns the precomputed runtime forwarding hops for one op on id.
func (rt *RouteTable) Forwards(id namespace.NodeID) float64 { return rt.forwards[id] }

// Jumps returns the memoized Def. 1 jp_j for id.
func (rt *RouteTable) Jumps(id namespace.NodeID) float64 { return rt.jumps[id] }

// WeightedJumpSum returns the memoized Σ_j jp_j·p_j of Eq. 1.
func (rt *RouteTable) WeightedJumpSum() float64 { return rt.wjs }

// Serve resolves which server handles one operation on id. rnd supplies the
// per-event random word used to pick among replicas. replicated reports
// whether the node is served by the (full or bounded) global layer; ok is
// false when the node is unknown or unplaced.
func (rt *RouteTable) Serve(id namespace.NodeID, rnd uint64) (server ServerID, replicated, ok bool) {
	if id < 0 || int(id) >= len(rt.known) || !rt.known[id] {
		return NoServer, false, false
	}
	if rt.replicated[id] {
		return ServerID(rnd % uint64(rt.m)), true, true
	}
	if l := rt.repLen[id]; l > 0 {
		return rt.replicas[rt.repOff[id]+int32(rnd%uint64(l))], true, true
	}
	if o := rt.owner[id]; o != NoServer {
		return o, false, true
	}
	return NoServer, false, false
}

// DescribeUnroutable explains why Serve returned !ok for id, for error
// reporting off the hot path.
func (rt *RouteTable) DescribeUnroutable(id namespace.NodeID) error {
	if id < 0 || int(id) >= len(rt.known) || !rt.known[id] {
		return fmt.Errorf("unknown node %d", id)
	}
	return fmt.Errorf("node %d unplaced", id)
}
