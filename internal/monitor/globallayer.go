package monitor

import (
	"fmt"
	"slices"
	"strings"

	"d2tree/internal/wire"
)

// glUpdateLocked commits one global-layer write. m.mu is what orders GL
// writes: each takes the next GL version and, on its path, the next entry
// version, under the one lock every other reader and writer of the GL holds.
// The answer leaves once the write is durable.
func (m *Monitor) glUpdateLocked(req *wire.GLUpdateRequest) (*wire.GLUpdateResponse, error) {
	e, ok := m.glEntries[req.Entry.Path]
	u := &walGLUpdate{Op: req.Op, Entry: req.Entry, GLVersion: m.glVersion + 1}
	switch req.Op {
	case "create":
		if ok {
			return nil, fmt.Errorf("monitor: %s already exists in GL", req.Entry.Path)
		}
		u.Entry.Version = 1
	case "setattr":
		if !ok {
			return nil, fmt.Errorf("monitor: %s not in GL", req.Entry.Path)
		}
		u.Entry = *e
		u.Entry.Size, u.Entry.Mode = req.Entry.Size, req.Entry.Mode
		u.Entry.Version++
	default:
		return nil, fmt.Errorf("monitor: unknown GL op %q", req.Op)
	}
	m.journal.Commit(u)
	return &wire.GLUpdateResponse{Entry: u.Entry, GLVersion: u.GLVersion}, nil
}

// layerLocked reads the global layer and the subtree owners off the current
// split, keeping the committed version of every entry already in the GL.
func (m *Monitor) layerLocked() ([]wire.Entry, []walOwner) {
	gl := make([]wire.Entry, 0, len(m.d2.Split().GL))
	for id := range m.d2.Split().GL {
		if n := m.tree.Node(id); n != nil {
			e := n.Entry(m.tree.Path(n))
			if old, ok := m.glEntries[e.Path]; ok {
				e = *old
			}
			gl = append(gl, e)
		}
	}
	slices.SortFunc(gl, func(a, b wire.Entry) int { return strings.Compare(a.Path, b.Path) })
	subtrees := m.d2.Subtrees()
	owners := make([]walOwner, len(subtrees))
	for i, st := range subtrees {
		owner, _ := m.d2.SubtreeOwner(i)
		owners[i] = walOwner{Root: m.tree.Path(m.tree.Node(st.Root)), Server: int(owner)}
	}
	return gl, owners
}

// ReevaluateGlobalLayer re-runs Tree-Splitting and Subtree-Allocation
// against the popularity accumulated from heartbeat access counters — the
// infrequent global-layer adjustment of Sec. IV-B ("typically once a day").
// The new global layer and owner set are journaled and published with bumped
// versions; every local-layer subtree is pushed to its (possibly new) owner,
// and servers drop subtrees the fresh index maps elsewhere.
func (m *Monitor) ReevaluateGlobalLayer() error {
	_, err := durably(m, func() (struct{}, error) { return struct{}{}, m.reevaluateLocked() })
	return err
}

func (m *Monitor) reevaluateLocked() error {
	if err := m.d2.Resplit(); err != nil {
		return fmt.Errorf("monitor: resplit: %w", err)
	}
	m.commitLayerLocked(m.layerLocked())
	// Superseded transfers are dropped.
	m.transfers = make(map[int][]wire.TransferCommand)
	m.inFlight = make(map[string]flight)
	m.pinned = make(map[string]pin)
	m.migIDs = make(map[string]string)
	for root, addr := range m.index {
		m.pushSubtreeLocked(root, addr)
	}
	// Subtrees the fresh allocation gave to a dead server are orphans like
	// any other: the failover path re-homes them.
	m.checkFailuresLocked()
	return nil
}
