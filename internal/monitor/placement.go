package monitor

import (
	"fmt"
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
	m.transfers[src] = append(m.transfers[src], wire.TransferCommand{
		RootPath: root, DestAddr: dst.addr, ReqID: reqID,
	})
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

// transferDoneLocked commits a move. The source drops its copy on the
// answer, which leaves once the new owner is durable.
func (m *Monitor) transferDoneLocked(req *wire.TransferDoneRequest) (*wire.LockResponse, error) {
	// The destination now has the entries: commit ownership and publish it.
	if f, ok := m.inFlight[req.RootPath]; ok {
		if f.load > 0 {
			// The paper keeps the decaying counter per subtree, so it moves
			// with the subtree. Shifting the planned share now keeps the next
			// round from shedding the same load again while the averages
			// catch up with the move.
			src := m.members[m.subtreeOwner[req.RootPath]]
			src.load = max(0, src.load-f.load)
			m.members[f.dest].load += f.load
		}
		delete(m.inFlight, req.RootPath)
		m.commitLocked(&walOwner{Root: req.RootPath, Server: f.dest})
	} else {
		// A command abandoned past its deadline completed after all: the
		// destination holds the subtree, so route it there.
		m.index[req.RootPath] = req.DestAddr
		m.indexVer++
	}
	m.pinned[req.RootPath] = pin{dest: core.AnyServer, until: m.round + pinRounds}
	m.nTransfersDone++
	reqID := req.ReqID
	if reqID == "" {
		reqID = m.migIDs[req.RootPath]
	}
	delete(m.migIDs, req.RootPath) // migration over; a later move is a new trace
	m.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "done",
		ReqID:  reqID,
		Path:   req.RootPath,
		Detail: "committed to " + req.DestAddr,
	})
	return &wire.LockResponse{Granted: true}, nil
}

// transferFailedLocked releases a NACKed transfer's in-flight marker so the
// subtree can be re-scheduled — to a different destination: the failed one
// goes into the planner's exclusion set for pinRounds.
func (m *Monitor) transferFailedLocked(req *wire.TransferFailedRequest) (*wire.LockResponse, error) {
	m.nTransfersFailed++
	if f, ok := m.inFlight[req.RootPath]; ok {
		m.pinned[req.RootPath] = pin{dest: partition.ServerID(f.dest), until: m.round + pinRounds}
		delete(m.inFlight, req.RootPath)
	}
	reqID := req.ReqID
	if reqID == "" {
		reqID = m.migIDs[req.RootPath]
	}
	// The migID is kept: the re-scheduled move continues the same trace.
	m.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "failed",
		ReqID:  reqID,
		Path:   req.RootPath,
		Detail: "dest " + req.DestAddr,
		Err:    req.Reason,
	})
	// Let the planner act on the failure without waiting out a full
	// adjustment interval: the NACK is fresh evidence, not noise.
	m.lastAdjust = time.Time{}
	return &wire.LockResponse{Granted: true}, nil
}

// ScheduleTransfer manually enqueues one subtree transfer to the given
// destination server, bypassing the load planner — an operator/test hook for
// forcing a migration. The command is handed to the source on its next
// heartbeat and follows the normal lifecycle (issue → install →
// TransferDone/TransferFailed), sharing the subtree's migration trace
// identifier with any earlier NACKed attempt.
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
