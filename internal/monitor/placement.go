package monitor

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"d2tree/internal/core"
	"d2tree/internal/obs"
	"d2tree/internal/partition"
	"d2tree/internal/wire"
)

// planAdjustmentLocked runs one Dynamic-Adjustment round. core.Adjuster
// plans it from the members' decayed loads (dead and unjoined slots at
// capacity 0) and one exclusion set: roots in flight, roots that moved
// within pinRounds, and the destination a root's last transfer NACKed
// against. The plan is issued only if it lowers the predicted Eq. 2
// variance — otherwise even the smallest subtree overshoots the imbalance it
// answers, and the next round would send it back. Callers hold m.mu.
func (m *Monitor) planAdjustmentLocked() {
	now, n := m.now(), m.cfg.Servers
	in := core.PlanInput{Loads: make([]float64, n), Caps: make([]float64, n), Exclude: make(map[int]partition.ServerID)}
	var live int
	var total float64
	for _, mem := range m.members {
		if mem.alive {
			in.Loads[mem.id], in.Caps[mem.id] = mem.load, 1
			live++
			total += mem.load
		}
	}
	if live < 2 || total < minPlanLoad*float64(live) {
		// Idle (or alone) restarts the clock, so when load arrives the
		// averages get a full interval to fill before the first round.
		m.lastAdjust = now
		return
	}
	if now.Sub(m.lastAdjust) < m.cfg.AdjustInterval {
		return
	}
	m.lastAdjust = now
	m.round++
	var roots []string // roots[i] names in.Subtrees[i]
	for root, owner := range m.subtreeOwner {
		node, err := m.tree.Lookup(root)
		if err != nil {
			continue
		}
		if _, moving := m.inFlight[root]; moving {
			in.Exclude[len(roots)] = core.AnyServer
		} else if p, ok := m.pinned[root]; ok && p.until > m.round {
			in.Exclude[len(roots)] = p.dest
		} else if ok {
			delete(m.pinned, root)
		}
		roots = append(roots, root)
		in.Subtrees = append(in.Subtrees, core.Subtree{Root: node.ID(), Popularity: node.TotalPopularity()})
		in.Owners = append(in.Owners, partition.ServerID(owner))
	}
	detail := fmt.Sprintf("loads=%.0f ops/s", in.Loads)
	for k := range in.Loads {
		in.Loads[k] /= loadUnit
	}
	moves, err := core.NewAdjuster(core.AdjusterConfig{}).Plan(in)
	before, after := in.Variance(nil)*loadUnit*loadUnit, in.Variance(moves)*loadUnit*loadUnit
	gain := len(moves) == 0 || after < before
	verdict := "planned"
	if !gain {
		verdict = "discarded=no-gain"
	}
	m.rec.Record(obs.Event{
		Kind: obs.KindMigration,
		Op:   "round",
		Detail: fmt.Sprintf("%s variance=%.4g->%.4g moves=%d %s in-flight=%d pinned=%d",
			detail, before, after, len(moves), verdict, len(m.inFlight), len(m.pinned)),
		Err: obs.ErrString(err),
	})
	if !gain {
		return
	}
	for _, mv := range moves {
		m.queueTransferLocked(roots[mv.Subtree], int(mv.From), m.members[mv.To], mv.Load*loadUnit, "")
	}
}

// queueTransferLocked enqueues one transfer command for the source's next
// heartbeat and reserves the root. Ownership commits only on TransferDone —
// committing now would open a window where the destination is advertised as
// owner before the entries arrive. Callers hold m.mu.
func (m *Monitor) queueTransferLocked(root string, src int, dst *member, load float64, note string) {
	reqID := m.migIDForLocked(root)
	m.transfers[src] = append(m.transfers[src], wire.TransferCommand{RootPath: root, DestAddr: dst.addr, ReqID: reqID})
	m.inFlight[root] = flight{dest: dst.id, load: load}
	m.nTransfersPlanned++
	m.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "plan",
		ReqID:  reqID,
		Path:   root,
		Detail: note + "src mds-" + strconv.Itoa(src) + ", dest mds-" + strconv.Itoa(dst.id) + " at " + dst.addr,
	})
}

// migIDForLocked returns the subtree's migration trace identifier, minting
// one on first use. Callers hold m.mu.
func (m *Monitor) migIDForLocked(root string) string {
	if id := m.migIDs[root]; id != "" {
		return id
	}
	id := m.ids.Next()
	m.migIDs[root] = id
	return id
}

// transferDoneLocked settles a shipped transfer: the source removed its copy,
// durably, before it sent the done, so the named destination holds the only
// one. A done matching the root's transfer flight commits it. A late one
// commits its destination while the sender still owns the root, the
// destination is live and no recovery push races for the root, and cancels
// the root's other transfer, queued or issued: its source no longer holds
// the root. A done naming the owner is a duplicate; any other is refused
// (DESIGN.md §10, "Owner commits").
func (m *Monitor) transferDoneLocked(req *wire.TransferDoneRequest) (*wire.LockResponse, error) {
	root, reqID := req.RootPath, cmp.Or(req.ReqID, m.migIDs[req.RootPath])
	owner, known := m.subtreeOwner[root]
	dest := slices.IndexFunc(m.members, func(mem *member) bool { return mem.alive && mem.addr == req.DestAddr })
	if f, ok := m.transferToLocked(root, req.DestAddr); ok {
		// The paper keeps the decaying counter per subtree, so the planned
		// share moves with it now: the next round does not shed the same
		// load again while the averages catch up with the move.
		m.members[owner].load = max(0, m.members[owner].load-f.load)
		m.members[f.dest].load += f.load
		dest = f.dest
	} else if known && dest >= 0 && owner == dest {
		return &wire.LockResponse{Granted: true}, nil // a duplicate: committed already
	} else if !known || dest < 0 || owner != req.ServerID || m.inFlight[root].push {
		m.rec.Record(obs.Event{Kind: obs.KindMigration, Op: "done_refused", ReqID: reqID, Path: root, Detail: "dest " + req.DestAddr})
		return &wire.LockResponse{}, nil
	}
	delete(m.inFlight, root)
	m.transfers[owner] = slices.DeleteFunc(m.transfers[owner], func(c wire.TransferCommand) bool { return c.RootPath == root })
	m.journal.Commit(&wire.OwnerRecord{Root: root, Server: dest})
	m.pinned[root] = pin{dest: core.AnyServer, until: m.round + pinRounds}
	m.nTransfersDone++
	delete(m.migIDs, root) // migration over; a later move is a new trace
	m.rec.Record(obs.Event{Kind: obs.KindMigration, Op: "done", ReqID: reqID, Path: root, Detail: "committed to " + req.DestAddr})
	return &wire.LockResponse{Granted: true}, nil
}

// transferFailedLocked settles a NACKed transfer. A NACK naming the
// destination of the root's transfer flight releases it so the subtree can be
// re-scheduled, to a different destination: the failed one goes into the
// planner's exclusion set for pinRounds. A NACK for a command abandoned since
// leaves a newer flight alone.
func (m *Monitor) transferFailedLocked(req *wire.TransferFailedRequest) (*wire.LockResponse, error) {
	m.nTransfersFailed++
	if f, ok := m.transferToLocked(req.RootPath, req.DestAddr); ok {
		m.pinned[req.RootPath] = pin{dest: partition.ServerID(f.dest), until: m.round + pinRounds}
		delete(m.inFlight, req.RootPath)
		// Let the planner act on the failure without waiting out a full
		// adjustment interval: the NACK is fresh evidence, not noise.
		m.lastAdjust = time.Time{}
	}
	// The migID is kept: the re-scheduled move continues the same trace.
	m.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "failed",
		ReqID:  cmp.Or(req.ReqID, m.migIDs[req.RootPath]),
		Path:   req.RootPath,
		Detail: "dest " + req.DestAddr,
		Err:    req.Reason,
	})
	return &wire.LockResponse{Granted: true}, nil
}

// transferToLocked is root's flight, and whether it is a planned transfer to
// addr: the one flight a done or a NACK naming addr settles.
func (m *Monitor) transferToLocked(root, addr string) (flight, bool) {
	f, ok := m.inFlight[root]
	return f, ok && !f.push && m.members[f.dest].addr == addr
}

// ScheduleTransfer queues one transfer of root to server destID, bypassing
// the load planner: an operator and test hook. The command follows the
// normal lifecycle from the source's next heartbeat (issue → install →
// TransferDone/TransferFailed) and shares the root's migration trace with
// any earlier NACKed attempt.
func (m *Monitor) ScheduleTransfer(root string, destID int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	owner, ok := m.subtreeOwner[root]
	if !ok {
		return fmt.Errorf("monitor: %s is not a subtree root", root)
	}
	if owner < 0 || owner >= len(m.members) || !m.members[owner].alive {
		return fmt.Errorf("monitor: subtree %s owner mds-%d is not alive", root, owner)
	}
	if destID < 0 || destID >= len(m.members) || !m.members[destID].alive {
		return fmt.Errorf("monitor: destination mds-%d is not alive", destID)
	}
	if destID == owner {
		return fmt.Errorf("monitor: subtree %s is already owned by mds-%d", root, destID)
	}
	if _, moving := m.inFlight[root]; moving {
		return fmt.Errorf("monitor: subtree %s already has a transfer in flight", root)
	}
	m.queueTransferLocked(root, owner, m.members[destID], 0, "manual, ")
	return nil
}
