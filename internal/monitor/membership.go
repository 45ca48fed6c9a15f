package monitor

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"

	"d2tree/internal/obs"
	"d2tree/internal/wire"
)

func (m *Monitor) joinLocked(req *wire.JoinRequest) (*wire.JoinResponse, error) {
	// After a Monitor restart, an MDS takes back the slot that owns what it
	// recovered, so its claims are adopted there instead of shipped from the
	// Monitor's tree, which lacks the creates no heartbeat reported yet. Any
	// other joiner reuses a dead slot first (replacement server), else
	// appends.
	id := -1
	if m.reopened {
		id = m.claimedSlotLocked(req.RecoveredSubtrees)
	}
	if id == -1 {
		id = slices.IndexFunc(m.members, func(mem *member) bool { return !mem.alive })
	}
	if id == -1 {
		if len(m.members) >= m.cfg.Servers {
			return nil, ErrClusterFull
		}
		id = len(m.members)
	}
	// Slots skipped below id stay empty and never joined: their roots keep
	// the grace checkFailuresLocked gives such a slot.
	for len(m.members) <= id {
		m.members = append(m.members, &member{id: len(m.members)})
	}
	mem := m.members[id]
	mem.addr = req.Addr
	mem.lastSeen = m.now()
	mem.alive = true
	mem.load = 0
	m.lastAdjust = mem.lastSeen // its average starts empty: give it a full interval
	m.rec.Record(obs.Event{
		Kind:   obs.KindCluster,
		Op:     "member_join",
		Detail: "mds-" + strconv.Itoa(id) + " at " + req.Addr,
	})

	// Adopt recovery claims: a restarted MDS that replayed its WAL arrives
	// already holding subtrees, and re-shipping them from the authoritative
	// tree would discard any local-layer mutations newer than the Monitor's
	// view. A claim is adopted when the root has no live owner elsewhere and
	// no recovery push is racing for it (the push wins — its destination may
	// already hold the data). Rejected claims are omitted from
	// AdoptedSubtrees; the joiner drops those subtrees, which keeps every
	// root single-owned.
	adopted := make(map[string]bool, len(req.RecoveredSubtrees))
	for _, root := range req.RecoveredSubtrees {
		owner, known := m.subtreeOwner[root]
		if !known {
			continue // no longer a subtree root; claim rejected
		}
		if _, moving := m.inFlight[root]; moving {
			continue // recovery push racing; it wins, joiner drops its copy
		}
		if owner != id && owner >= 0 && owner < len(m.members) && m.members[owner].alive {
			continue // live owner elsewhere; claim rejected
		}
		if owner != id {
			m.journal.Commit(&wire.OwnerRecord{Root: root, Server: id})
		}
		adopted[root] = true
	}

	// Route this slot's subtrees to the joiner and materialise those it does
	// not already hold (adopted roots: it holds fresher data). Roots with a
	// recovery push in flight stay out: the push's destination is about to
	// commit as their owner, and advertising or materialising them on the
	// joiner would leave one root served from two places.
	var ship []string
	for root, owner := range m.subtreeOwner {
		if _, moving := m.inFlight[root]; owner != id || moving {
			continue
		}
		m.index[root] = req.Addr
		if !adopted[root] {
			ship = append(ship, root)
		}
	}
	resp := &wire.JoinResponse{ServerID: id, GlobalLayer: m.glSnapshotLocked(), Trees: m.subtreesLocked(ship)}
	m.indexVer++
	resp.GLVersion, resp.IndexVer, resp.Index = m.glVersion, m.indexVer, maps.Clone(m.index)
	for root := range adopted {
		resp.AdoptedSubtrees = append(resp.AdoptedSubtrees, root)
	}
	sort.Strings(resp.AdoptedSubtrees)
	return resp, nil
}

// claimedSlotLocked is the free slot owning the most of roots, the lowest
// on a tie, or -1 when they name none. A slot is free when its member is
// dead or never joined. Callers hold m.mu.
func (m *Monitor) claimedSlotLocked(roots []string) int {
	votes := make([]int, m.cfg.Servers)
	for _, root := range roots {
		id, ok := m.subtreeOwner[root]
		if ok && id >= 0 && id < len(votes) && (id >= len(m.members) || !m.members[id].alive) {
			votes[id]++
		}
	}
	best := -1
	for id, n := range votes {
		if n > 0 && (best == -1 || n > votes[best]) {
			best = id
		}
	}
	return best
}

// glSnapshotLocked copies the global layer out, sorted by path.
func (m *Monitor) glSnapshotLocked() []wire.Entry {
	out := make([]wire.Entry, 0, len(m.glEntries))
	for _, e := range m.glEntries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func (m *Monitor) heartbeatLocked(req *wire.HeartbeatRequest) (*wire.HeartbeatResponse, error) {
	m.nHeartbeats++
	if req.ServerID < 0 || req.ServerID >= len(m.members) {
		return nil, fmt.Errorf("monitor: heartbeat from unknown server %d", req.ServerID)
	}
	mem := m.members[req.ServerID]
	// A stale ID from before a Monitor restart can name a slot that was
	// since granted to a different server, or one no server has joined yet;
	// adopting the beat would make two servers flap one slot's address, or
	// seat a server that never claimed its roots. Reject it as unknown so
	// the sender re-joins and is assigned its own slot.
	if mem.addr == "" || req.Addr != "" && mem.addr != req.Addr {
		return nil, fmt.Errorf("monitor: heartbeat from unknown server %d (%s; slot registered to %s)",
			req.ServerID, req.Addr, mem.addr)
	}
	// The paper's decaying access counter as a rate: req.Load, the ops since
	// the previous beat, enters an average that forgets with time constant
	// AdjustInterval however the beats are spaced.
	now := m.now()
	if dt := now.Sub(mem.lastSeen).Seconds(); dt > 0 {
		mem.load -= math.Expm1(-dt/m.cfg.AdjustInterval.Seconds()) * (req.Load/dt - mem.load)
	}
	mem.lastSeen = now
	mem.ops = req.Ops
	mem.alive = true
	if req.Addr != "" {
		mem.addr = req.Addr
	}
	// Fold the reported access counters into the authoritative popularity
	// view; global-layer re-evaluation reads it (Sec. IV-B: "send these
	// information to Monitor to help adjust global layer").
	for path, count := range req.HotPaths {
		if n, err := m.tree.Lookup(path); err == nil {
			m.tree.Touch(n, count)
		}
	}
	// Fold local-layer creates into the authoritative tree, so a failover
	// push materialises paths born after bootstrap; journaled, so a restarted
	// Monitor recovers the same tree.
	if len(req.CreatedPaths) > 0 {
		m.journal.Commit(&wire.LLPathsRecord{Entries: req.CreatedPaths})
	}

	m.checkFailuresLocked()
	m.planAdjustmentLocked()

	resp := &wire.HeartbeatResponse{
		GLVersion:       m.glVersion,
		IndexVer:        m.indexVer,
		JournalDegraded: m.journal.Degraded(),
	}
	if req.GLVersion < m.glVersion {
		resp.GlobalLayer = m.glSnapshotLocked()
	}
	if req.IndexVer < m.indexVer {
		resp.Index = maps.Clone(m.index)
	}
	if cmds := m.transfers[req.ServerID]; len(cmds) > 0 {
		resp.Transfers = cmds
		delete(m.transfers, req.ServerID)
		// Stamp the hand-off: a command neither Done nor Failed within the
		// heartbeat timeout is presumed lost and returned to the planner.
		for _, cmd := range cmds {
			if f, ok := m.inFlight[cmd.RootPath]; ok {
				f.issued = now
				m.inFlight[cmd.RootPath] = f
			}
			m.rec.Record(obs.Event{
				Kind:   obs.KindMigration,
				Op:     "issue",
				ReqID:  cmd.ReqID,
				Path:   cmd.RootPath,
				Detail: "src mds-" + strconv.Itoa(req.ServerID) + ", dest " + cmd.DestAddr,
			})
		}
	}
	return resp, nil
}

func (m *Monitor) clusterInfoLocked() (*wire.ClusterInfoResponse, error) {
	resp := &wire.ClusterInfoResponse{
		Index:    maps.Clone(m.index),
		IndexVer: m.indexVer,
	}
	for _, mem := range m.members {
		if mem.alive {
			resp.Servers = append(resp.Servers, mem.addr)
		}
	}
	return resp, nil
}
