package partition

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"d2tree/internal/namespace"
)

// refAssignment is Assignment as it was kept before owners moved into a
// slice indexed by NodeID: one map per kind of placement. It is the
// reference TestAssignmentMatchesReference checks the slice against.
type refAssignment struct {
	m          int
	owner      map[namespace.NodeID]ServerID
	replicated map[namespace.NodeID]struct{}
	partial    map[namespace.NodeID][]ServerID
	gen        uint64
}

func newRef(m int) *refAssignment {
	return &refAssignment{
		m:          m,
		owner:      map[namespace.NodeID]ServerID{},
		replicated: map[namespace.NodeID]struct{}{},
		partial:    map[namespace.NodeID][]ServerID{},
	}
}

func (a *refAssignment) setOwner(id namespace.NodeID, s ServerID) bool {
	if s < 0 || int(s) >= a.m {
		return false
	}
	delete(a.replicated, id)
	delete(a.partial, id)
	a.owner[id] = s
	a.gen++
	return true
}

func (a *refAssignment) setReplicated(id namespace.NodeID) {
	delete(a.owner, id)
	delete(a.partial, id)
	a.replicated[id] = struct{}{}
	a.gen++
}

func (a *refAssignment) setReplicas(id namespace.NodeID, servers []ServerID) bool {
	if len(servers) == 0 {
		return false
	}
	var cp []ServerID
	for _, s := range servers {
		if s < 0 || int(s) >= a.m {
			return false
		}
		if !slices.Contains(cp, s) {
			cp = append(cp, s)
		}
	}
	switch len(cp) {
	case a.m:
		a.setReplicated(id)
	case 1:
		a.setOwner(id, cp[0])
	default:
		delete(a.owner, id)
		delete(a.replicated, id)
		a.partial[id] = cp
		a.gen++
	}
	return true
}

func (a *refAssignment) holds(id namespace.NodeID, s ServerID) bool {
	if _, ok := a.replicated[id]; ok {
		return true
	}
	if rs, ok := a.partial[id]; ok {
		return slices.Contains(rs, s)
	}
	o, ok := a.owner[id]
	return ok && o == s
}

func (a *refAssignment) placed(id namespace.NodeID) bool {
	_, o := a.owner[id]
	_, r := a.replicated[id]
	_, p := a.partial[id]
	return o || r || p
}

func (a *refAssignment) clone() *refAssignment {
	c := newRef(a.m)
	for k, v := range a.owner {
		c.owner[k] = v
	}
	for k := range a.replicated {
		c.replicated[k] = struct{}{}
	}
	for k, v := range a.partial {
		c.partial[k] = slices.Clone(v)
	}
	c.gen = a.gen
	return c
}

// jumps is Assignment.Jumps over the maps.
func (a *refAssignment) jumps(n *namespace.Node) float64 {
	var jumps float64
	var cur []ServerID
	curWild, first := false, true
	n.EachAncestor(func(node *namespace.Node) bool {
		id := node.ID()
		_, wild := a.replicated[id]
		var set []ServerID
		if rs, ok := a.partial[id]; ok {
			set = rs
		} else if o, ok := a.owner[id]; ok {
			set = []ServerID{o}
		} else if !wild {
			set = []ServerID{NoServer}
		}
		switch {
		case first:
			curWild, cur, first = wild, slices.Clone(set), false
		case wild:
		case curWild:
			jumps += float64(a.m-len(set)) / float64(a.m)
			curWild, cur = false, slices.Clone(set)
		default:
			inter := intersectCount(cur, set)
			jumps += 1 - float64(inter)/float64(len(cur))
			if inter > 0 {
				cur = intersect(cur, set)
			} else {
				cur = slices.Clone(set)
			}
		}
		return true
	})
	return jumps
}

// TestAssignmentMatchesReference runs seeded SetOwner, SetReplicated and
// SetReplicas sequences, bad servers and empty replica sets included, on an
// Assignment and on the map-based reference over one tree. After every step
// Owner, Holds, Placed, IsReplicated, Replicas, NumOwned, NumReplicated,
// Generation, Validate and Jumps answer as the reference does, for every
// node and for IDs outside the tree; a Clone taken on the way keeps
// answering as a clone of the reference does while the original moves on.
func TestAssignmentMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, err := namespace.Build(namespace.BuildConfig{Nodes: 40, MaxDepth: 5, DirFanout: 2, FilesPerDir: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		m := 2 + rng.Intn(4)
		a, err := NewAssignment(m)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(m)
		span := tr.IDSpan()
		server := func() ServerID { return ServerID(rng.Intn(m+2) - 1) } // -1 and m are out of range
		var clone *Assignment
		var refClone *refAssignment
		for step := range 300 {
			id := namespace.NodeID(rng.Intn(span))
			switch rng.Intn(3) {
			case 0:
				s := server()
				if err := a.SetOwner(id, s); (err == nil) != ref.setOwner(id, s) {
					t.Fatalf("seed %d step %d: SetOwner(%d, %d) = %v", seed, step, id, s, err)
				}
			case 1:
				a.SetReplicated(id)
				ref.setReplicated(id)
			default:
				servers := make([]ServerID, rng.Intn(m+2))
				for i := range servers {
					servers[i] = server()
				}
				if err := a.SetReplicas(id, servers); (err == nil) != ref.setReplicas(id, servers) {
					t.Fatalf("seed %d step %d: SetReplicas(%d, %v) = %v", seed, step, id, servers, err)
				}
			}
			compareAssignment(t, tr, a, ref)
			if step == 150 {
				clone, refClone = a.Clone(), ref.clone()
			}
			if clone != nil {
				compareAssignment(t, tr, clone, refClone)
			}
		}
	}
}

// compareAssignment fails t where a answers otherwise than ref.
func compareAssignment(t *testing.T, tr *namespace.Tree, a *Assignment, ref *refAssignment) {
	t.Helper()
	if a.NumOwned() != len(ref.owner) || a.NumReplicated() != len(ref.replicated) ||
		len(a.partial) != len(ref.partial) || a.Generation() != ref.gen {
		t.Fatalf("owned %d, replicated %d, partial %d, generation %d; reference %d, %d, %d, %d",
			a.NumOwned(), a.NumReplicated(), len(a.partial), a.Generation(),
			len(ref.owner), len(ref.replicated), len(ref.partial), ref.gen)
	}
	for id := namespace.NodeID(-2); id < namespace.NodeID(tr.IDSpan()+3); id++ {
		o, ok := a.Owner(id)
		ro, rok := ref.owner[id]
		if ok != rok || ok && o != ro {
			t.Fatalf("Owner(%d) = %d, %v; reference %d, %v", id, o, ok, ro, rok)
		}
		_, rrep := ref.replicated[id]
		if a.Placed(id) != ref.placed(id) || a.IsReplicated(id) != rrep {
			t.Fatalf("node %d: Placed %v, IsReplicated %v; reference %v, %v", id, a.Placed(id), a.IsReplicated(id), ref.placed(id), rrep)
		}
		rs, ok := a.Replicas(id)
		rrs, rok := ref.partial[id]
		if ok != rok || !slices.Equal(rs, rrs) {
			t.Fatalf("Replicas(%d) = %v, %v; reference %v, %v", id, rs, ok, rrs, rok)
		}
		for s := ServerID(-1); s <= ServerID(a.M()); s++ {
			if a.Holds(id, s) != ref.holds(id, s) {
				t.Fatalf("Holds(%d, %d) = %v; reference %v", id, s, a.Holds(id, s), ref.holds(id, s))
			}
		}
	}
	refErr := error(nil)
	for _, n := range tr.Nodes() {
		if refErr == nil && !ref.placed(n.ID()) {
			refErr = ErrUnplaced
		}
		if got, want := a.Jumps(n), ref.jumps(n); got != want {
			t.Fatalf("Jumps(%d) = %v; reference %v", n.ID(), got, want)
		}
	}
	if err := a.Validate(tr); !errors.Is(err, refErr) || (err == nil) != (refErr == nil) {
		t.Fatalf("Validate = %v; reference %v", err, refErr)
	}
}
