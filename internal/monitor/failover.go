package monitor

import (
	"sort"
	"strconv"
	"time"

	"d2tree/internal/core"
	"d2tree/internal/namespace"
	"d2tree/internal/obs"
	"d2tree/internal/partition"
	"d2tree/internal/wire"
)

// checkFailuresLocked reassigns subtrees of servers that stopped
// heartbeating. Callers hold m.mu.
func (m *Monitor) checkFailuresLocked() {
	now := m.now()
	m.reissueStaleLocked(now)
	var live []*member
	for _, mem := range m.members {
		if mem.alive && now.Sub(mem.lastSeen) > m.cfg.HeartbeatTimeout {
			mem.alive = false
			m.rec.Record(obs.Event{
				Kind:   obs.KindCluster,
				Op:     "member_dead",
				Detail: "mds-" + strconv.Itoa(mem.id) + " at " + mem.addr + " missed heartbeats",
			})
			// Commands still queued for the dead server can never be issued
			// (issued ones left m.transfers; reissueStaleLocked abandons them):
			// release their subtrees so recovery and rebalancing go on.
			for _, cmd := range m.transfers[mem.id] {
				delete(m.inFlight, cmd.RootPath)
			}
			delete(m.transfers, mem.id)
		}
		if mem.alive {
			live = append(live, mem)
		}
	}
	if len(live) == 0 {
		return
	}
	// Collect every orphaned root: owned by a dead server, or by a planned
	// slot no process ever claimed. The latter get one heartbeat timeout of
	// grace from Start — after a Monitor restart the owner map can reference
	// slots whose servers are still rejoining (with recovery claims) — and
	// are then recovered like any dead owner's.
	var orphans []string
	for root, owner := range m.subtreeOwner {
		if owner >= 0 && owner < len(m.members) && m.members[owner].alive {
			continue
		}
		if owner >= len(m.members) && now.Sub(m.started) <= m.cfg.HeartbeatTimeout {
			continue // slot may still join and claim it
		}
		if _, moving := m.inFlight[root]; moving {
			continue // recovery already underway
		}
		orphans = append(orphans, root)
	}
	if len(orphans) == 0 {
		return
	}
	// Pending-pool distribution: the orphans are the dead server's share of
	// the namespace, and core.GreedyLPT hands them out heaviest-first, each
	// to the survivor carrying the least recovered popularity so far, so one
	// server never absorbs a dead peer's whole load. Every root weighs at
	// least 1, which spreads cold subtrees too.
	sort.Strings(orphans)
	subtrees := make([]core.Subtree, len(orphans))
	for i, root := range orphans {
		subtrees[i].Popularity = 1
		if n, err := m.tree.Lookup(root); err == nil {
			subtrees[i].Root, subtrees[i].Popularity = n.ID(), n.TotalPopularity()+1
		}
	}
	alloc, err := core.GreedyLPT(subtrees, partition.Capacities(len(live), 1))
	if err != nil {
		return // unreachable: orphans and live are non-empty, capacities are 1
	}
	for i, root := range orphans {
		dst := live[alloc[i]]
		m.recoverSubtreeLocked(root, dst.id, dst.addr)
	}
}

// reissueStaleLocked abandons transfer commands that were handed to a
// source but never acknowledged within the heartbeat timeout (source died
// mid-transfer, NACK lost): the in-flight marker is cleared so the next
// adjustment round can re-schedule the subtree. Callers hold m.mu.
func (m *Monitor) reissueStaleLocked(now time.Time) {
	for root, f := range m.inFlight {
		if f.issued.IsZero() || now.Sub(f.issued) <= m.cfg.HeartbeatTimeout {
			continue
		}
		delete(m.inFlight, root)
		m.nTransfersReissued++
		m.rec.Record(obs.Event{
			Kind:   obs.KindMigration,
			Op:     "reissue",
			ReqID:  m.migIDs[root],
			Path:   root,
			Detail: "command unacknowledged past heartbeat timeout; returned to planner",
		})
	}
}

// recoverSubtreeLocked reserves a subtree for its recovery destination and
// pushes it there from the authoritative copy. Ownership and the index
// commit only once the install succeeds, so no client is routed to a server
// that does not hold the data yet; a failed push is retried by a later
// failure check. Callers hold m.mu.
func (m *Monitor) recoverSubtreeLocked(rootPath string, destID int, destAddr string) {
	m.inFlight[rootPath] = flight{dest: destID, push: true}
	tree := m.subtreeLocked(rootPath)
	reqID := m.migIDForLocked(rootPath)
	m.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "recover_start",
		ReqID:  reqID,
		Path:   rootPath,
		Detail: "dest mds-" + strconv.Itoa(destID) + " at " + destAddr,
	})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		err := callMDS(destAddr, wire.TypeInstall, &wire.InstallRequest{Tree: tree})
		m.mu.Lock()
		defer m.mu.Unlock()
		if f, moving := m.inFlight[rootPath]; !moving || f.dest != destID {
			return // superseded by a newer plan
		}
		delete(m.inFlight, rootPath)
		if err != nil {
			m.rec.Record(obs.Event{
				Kind:  obs.KindMigration,
				Op:    "recover_failed",
				ReqID: reqID,
				Path:  rootPath,
				Err:   err.Error(),
			})
			// The push may have landed on the destination despite failing
			// here (a timeout races the install's durability wait), leaving
			// a stray copy whose index override pins its claim through every
			// reconciliation. Best-effort tell the destination to drop the
			// subtree before it is homed anywhere else: it may be dead or
			// never have received the install, and either way the ack (or
			// the error) ends the matter.
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				_ = callMDS(destAddr, wire.TypeUninstall, &wire.UninstallRequest{RootPath: rootPath})
			}()
			// If the root's owner slot rejoined while this push was failing,
			// the joiner was denied both its recovery claim and the join
			// materialisation (the push held the root) — it owns a subtree it
			// does not hold. Re-home the entries to the owner; otherwise a
			// later failure check retries. Not once the Monitor is closing:
			// nothing marks the owner dead any more, so against an owner that
			// has gone away the retry would never end and Close never return.
			if owner, ok := m.subtreeOwner[rootPath]; ok && !m.closed &&
				owner >= 0 && owner < len(m.members) && m.members[owner].alive {
				m.recoverSubtreeLocked(rootPath, owner, m.members[owner].addr)
			}
			return
		}
		m.journal.Commit(&wire.OwnerRecord{Root: rootPath, Server: destID})
		delete(m.migIDs, rootPath)
		m.rec.Record(obs.Event{
			Kind:   obs.KindMigration,
			Op:     "recover_done",
			ReqID:  reqID,
			Path:   rootPath,
			Detail: "dest " + destAddr,
		})
	}()
}

// pushSubtreeLocked installs a subtree onto the destination MDS directly
// from the monitor's authoritative copy. Callers hold m.mu.
func (m *Monitor) pushSubtreeLocked(rootPath, destAddr string) {
	req := &wire.InstallRequest{Tree: m.subtreeLocked(rootPath)}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		_ = callMDS(destAddr, wire.TypeInstall, req)
	}()
}

// callMDS makes one control call to an MDS with a per-call deadline, so a
// hung server cannot pin the calling goroutine (and with it a subtree's
// in-flight marker) forever.
func callMDS(addr, op string, req interface{}) error {
	conn, err := wire.DialCall(addr, 2*time.Second, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	return conn.Call(op, req, nil)
}

// subtreeLocked is the subtree at rootPath as the authoritative tree holds
// it, with no nodes when the tree has no such path. Callers hold m.mu.
func (m *Monitor) subtreeLocked(rootPath string) wire.Subtree {
	if trees := m.subtreesLocked([]string{rootPath}); len(trees) > 0 {
		return trees[0]
	}
	return wire.Subtree{Path: rootPath}
}

// subtreesLocked is the subtrees at roots, in root order, leaving out a root
// the tree has no path for. One pre-order walk per root writes the nodes
// into one slice, sized by a counting walk first: no path is built and
// nothing is sorted but the roots. Callers hold m.mu.
func (m *Monitor) subtreesLocked(roots []string) []wire.Subtree {
	sort.Strings(roots)
	trees := make([]wire.Subtree, 0, len(roots))
	tops := make([]*namespace.Node, 0, len(roots))
	size := 0
	for _, root := range roots {
		if n, err := m.tree.Lookup(root); err == nil {
			trees = append(trees, wire.Subtree{Path: root})
			tops = append(tops, n)
			size += m.tree.SubtreeSize(n)
		}
	}
	nodes := make([]wire.SubtreeNode, 0, size)
	for i, n := range tops {
		start := len(nodes)
		nodes = namespace.AppendSubtree(nodes, n)
		trees[i].Nodes = nodes[start:len(nodes):len(nodes)]
	}
	return trees
}
