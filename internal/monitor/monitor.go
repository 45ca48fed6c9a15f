// Package monitor implements the cluster Monitor of Sec. IV-A3: it accepts
// MDS registrations and periodic heartbeats, maintains the authoritative
// global layer (serialising updates under its own mutex), owns the
// local index mapping subtree roots to servers, runs the pending-pool
// dynamic adjustment, and detects MDS failure and arrival. Which subtrees
// move where is decided by internal/core, as in the simulator; the Monitor
// supplies loads, capacities and exclusions.
//
// The Monitor holds the authoritative namespace tree it was bootstrapped
// with, which lets it (re)materialise subtree entries for joining or
// replacement servers — a prototype simplification standing in for durable
// metadata storage.
package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"d2tree/internal/core"
	"d2tree/internal/namespace"
	"d2tree/internal/obs"
	"d2tree/internal/partition"
	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// Config parameterises a Monitor.
type Config struct {
	// Addr is the TCP listen address (use "127.0.0.1:0" in tests).
	Addr string
	// Servers is the expected MDS cluster size M; the initial partition is
	// computed for exactly this many servers.
	Servers int
	// GLProportion sizes the global layer (default 0.01, the evaluation's
	// 1%).
	GLProportion float64
	// HeartbeatTimeout marks a server dead after this silence (default 3s).
	HeartbeatTimeout time.Duration
	// AdjustInterval is the minimum time between pending-pool adjustment
	// rounds (default 2s), and the time constant the members' load averages
	// decay with: a round weighs about one round's worth of traffic.
	AdjustInterval time.Duration
	// WALPath, when non-empty, journals global-layer updates and subtree
	// ownership changes to a write-ahead log; a Monitor restarted with the
	// same namespace and WAL recovers the cluster's logical state.
	WALPath string
}

func (c *Config) applyDefaults() {
	if c.GLProportion == 0 {
		c.GLProportion = 0.01
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 3 * time.Second
	}
	if c.AdjustInterval == 0 {
		c.AdjustInterval = 2 * time.Second
	}
}

// ErrClusterFull is returned when more than the configured number of
// servers try to join.
var ErrClusterFull = errors.New("monitor: cluster already has all expected servers")

const (
	// pinRounds is how many adjustment rounds a root sits out after its move
	// commits, and how long a destination that NACKed it stays barred.
	pinRounds = 5
	// minPlanLoad is the mean load (ops/s per live member) below which no
	// round runs: a near-idle cluster shows noise, not imbalance.
	minPlanLoad = 100.0
	// loadUnit is what the planner's loads are counted in, in ops/s. The
	// planner caps a subtree's load at its popularity count, which only
	// means something when both share a unit (as in the simulator); counted
	// in Mops/s no load reaches that cap, and the plan depends on nothing
	// else about the loads' scale.
	loadUnit = 1e6
)

type member struct {
	id       int
	addr     string
	lastSeen time.Time
	load     float64 // ops/s, decayed with time constant AdjustInterval
	ops      int64
	alive    bool
}

// flight is a subtree move awaiting its commit.
type flight struct {
	dest int
	// load is the ops/s the planner expects the subtree to take along; zero
	// for manual transfers and recovery pushes.
	load float64
	// issued stamps the hand-off of the transfer command to its source over
	// a heartbeat (zero until then, and for recovery pushes). A command not
	// acknowledged by TransferDone or TransferFailed within the heartbeat
	// timeout is abandoned and the subtree returned to the planner.
	issued time.Time
}

// pin bars a root from moving to dest (core.AnyServer: anywhere) while the
// round counter is below until.
type pin struct {
	dest  partition.ServerID
	until int64
}

// Monitor is the cluster coordinator. Construct with New, start with
// Start, stop with Close.
type Monitor struct {
	cfg  Config
	tree *namespace.Tree
	d2   *core.D2Tree
	// ln is set once in Start before any goroutine can observe it and is
	// read-only thereafter (Close's ln.Close is safe concurrently with
	// Accept), so it lives outside mu's guard.
	ln net.Listener

	mu           sync.Mutex
	members      []*member
	glVersion    int64
	glEntries    map[string]*wire.Entry
	indexVer     int64
	index        map[string]string // subtree root path → MDS addr
	subtreeOwner map[string]int    // subtree root path → server id
	transfers    map[int][]wire.TransferCommand
	inFlight     map[string]flight // subtree root → its uncommitted move
	// pinned holds the planner exclusions that outlive a move: roots that
	// just moved, and the destination a root's last transfer NACKed against.
	pinned map[string]pin
	// round counts adjustment rounds; pins expire by it.
	round int64
	// migIDs maps a subtree root to its migration's trace identifier. Minted
	// when a move is first planned and kept across NACK → re-issue cycles, so
	// the whole history of one subtree's migration shares one ReqID; cleared
	// when the move commits.
	migIDs  map[string]string
	journal *wal.Log // nil when WALPath is unset
	// journalDegraded latches on the journal's first append failure: the
	// Monitor keeps serving (availability over durability) but the stat is
	// surfaced in MonitorStats and heartbeat responses so operators learn
	// the recovery story has silently become memory-only.
	journalDegraded bool
	lastAdjust      time.Time
	// started stamps Start: subtrees whose planned owner slot never joined
	// get one heartbeat-timeout of grace from this instant before the
	// failover path recovers them (a restarted Monitor's owner map can
	// reference slots whose servers are about to rejoin).
	started time.Time
	now     func() time.Time

	// Coordinator counters (guarded by mu), surfaced via TypeMonitorStats.
	nHeartbeats        int64
	nTransfersPlanned  int64
	nTransfersDone     int64
	nTransfersFailed   int64
	nTransfersReissued int64

	rec     *obs.Recorder // event ring ("monitor")
	opStats obs.OpStats   // per-op monitor-side latency histograms
	ids     *obs.IDGen    // migration trace-identifier mint

	conns  map[net.Conn]struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// New builds a Monitor over the authoritative namespace tree. The tree's
// popularity annotations drive the initial split and allocation.
func New(t *namespace.Tree, cfg Config) (*Monitor, error) {
	if t == nil {
		return nil, errors.New("monitor: nil namespace tree")
	}
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("monitor: Servers = %d, need >= 1", cfg.Servers)
	}
	cfg.applyDefaults()
	d2, err := core.New(t, cfg.Servers, core.Config{GLProportion: cfg.GLProportion})
	if err != nil {
		return nil, fmt.Errorf("monitor: initial partition: %w", err)
	}
	m := &Monitor{
		cfg:          cfg,
		tree:         t,
		d2:           d2,
		glEntries:    make(map[string]*wire.Entry),
		index:        make(map[string]string),
		subtreeOwner: make(map[string]int),
		transfers:    make(map[int][]wire.TransferCommand),
		inFlight:     make(map[string]flight),
		pinned:       make(map[string]pin),
		migIDs:       make(map[string]string),
		rec:          obs.NewRecorder("monitor", 0),
		ids:          obs.NewIDGen("m", 0),
		now:          time.Now,
		conns:        make(map[net.Conn]struct{}),
		stop:         make(chan struct{}),
	}
	m.glVersion = 1
	m.indexVer = 1
	for id := range d2.Split().GL {
		n := t.Node(id)
		m.glEntries[t.Path(n)] = entryFor(t, n)
	}
	for i, st := range d2.Subtrees() {
		owner, _ := d2.SubtreeOwner(i)
		m.subtreeOwner[t.Path(t.Node(st.Root))] = int(owner)
	}
	if cfg.WALPath != "" {
		if err := m.recoverFromWAL(cfg.WALPath); err != nil {
			return nil, err
		}
		journal, err := wal.Open(cfg.WALPath)
		if err != nil {
			return nil, err
		}
		m.journal = journal
	}
	return m, nil
}

// WAL record schemas.
type walGLUpdate struct {
	Op        string     `json:"op"`
	Entry     wire.Entry `json:"entry"`
	GLVersion int64      `json:"glVersion"`
}

type walOwner struct {
	Root   string `json:"root"`
	Server int    `json:"server"`
}

// walLLPaths journals local-layer paths reported by heartbeat CreatedPaths
// deltas, so the authoritative tree a restarted Monitor materialises
// failover pushes from includes entries created after bootstrap.
type walLLPaths struct {
	Entries []wire.Entry `json:"entries"`
}

// recoverFromWAL replays journalled state changes over the freshly computed
// initial partition (which is deterministic given the same namespace). The
// records are read first and applied under m.mu afterwards: Replay's
// callback is its own function scope, so mutating coordinator state from
// inside it would race with any concurrently started serving goroutine.
func (m *Monitor) recoverFromWAL(path string) error {
	var recs []wal.Record
	if err := wal.Replay(path, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range recs {
		switch rec.Type {
		case "gl_update":
			var u walGLUpdate
			if err := json.Unmarshal(rec.Data, &u); err != nil {
				return fmt.Errorf("monitor: wal gl_update: %w", err)
			}
			e := u.Entry
			m.glEntries[e.Path] = &e
			if u.Op == "create" {
				if e.Kind == wire.EntryDir {
					_, _ = m.tree.MkdirAll(e.Path)
				} else {
					_, _ = m.tree.AddFile(e.Path)
				}
			}
			if u.GLVersion > m.glVersion {
				m.glVersion = u.GLVersion
			}
		case "owner":
			var o walOwner
			if err := json.Unmarshal(rec.Data, &o); err != nil {
				return fmt.Errorf("monitor: wal owner: %w", err)
			}
			m.subtreeOwner[o.Root] = o.Server
			m.indexVer++
		case "ll_paths":
			var p walLLPaths
			if err := json.Unmarshal(rec.Data, &p); err != nil {
				return fmt.Errorf("monitor: wal ll_paths: %w", err)
			}
			for _, e := range p.Entries {
				if e.Kind == wire.EntryDir {
					_, _ = m.tree.MkdirAll(e.Path)
				} else {
					_, _ = m.tree.AddFile(e.Path)
				}
			}
		default:
			// Unknown record types are skipped for forward compatibility.
		}
	}
	return nil
}

// journalLocked appends a record, degrading to in-memory operation on
// journal errors (metadata service availability beats durability for this
// prototype). The first failure latches journalDegraded and records one
// event; later failures stay quiet instead of re-logging per call. Callers
// hold m.mu.
func (m *Monitor) journalLocked(recType string, payload interface{}) {
	if m.journal == nil {
		return
	}
	if _, err := m.journal.Append(recType, payload); err != nil && !m.journalDegraded {
		m.journalDegraded = true
		m.rec.Record(obs.Event{
			Kind:   obs.KindCluster,
			Op:     "journal_degraded",
			Detail: "WAL append failed; continuing memory-only",
			Err:    err.Error(),
		})
	}
}

func entryFor(t *namespace.Tree, n *namespace.Node) *wire.Entry {
	kind := wire.EntryDir
	if !n.IsDir() {
		kind = wire.EntryFile
	}
	return &wire.Entry{Path: t.Path(n), Kind: kind, Version: 1}
}

// Start begins listening and serving.
func (m *Monitor) Start() error {
	ln, err := net.Listen("tcp", m.cfg.Addr)
	if err != nil {
		return fmt.Errorf("monitor: listen %s: %w", m.cfg.Addr, err)
	}
	m.ln = ln
	m.mu.Lock()
	m.started = m.now()
	m.mu.Unlock()
	m.wg.Add(1)
	go m.acceptLoop()
	m.wg.Add(1)
	go m.failureLoop()
	return nil
}

// failureLoop drives failure detection on a timer, so a dead server is
// noticed even when no surviving peer heartbeats (the last MDS of a small
// cluster dying, say): heartbeat-driven detection alone would never mark it
// dead, wedging slot reuse for its restarted replacement.
func (m *Monitor) failureLoop() {
	defer m.wg.Done()
	period := m.cfg.HeartbeatTimeout / 2
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.mu.Lock()
			m.checkFailuresLocked()
			m.mu.Unlock()
		}
	}
}

// Addr returns the bound listen address.
func (m *Monitor) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// Close stops the listener and waits for connection goroutines to finish.
func (m *Monitor) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := make([]net.Conn, 0, len(m.conns))
	for nc := range m.conns {
		conns = append(conns, nc)
	}
	m.mu.Unlock()
	close(m.stop)
	var err error
	if m.ln != nil {
		err = m.ln.Close()
	}
	if m.journal != nil {
		if jerr := m.journal.Close(); err == nil {
			err = jerr
		}
	}
	// Force-close in-flight connections so per-conn goroutines unblock even
	// when peers keep pooled connections open.
	for _, nc := range conns {
		_ = nc.Close()
	}
	m.wg.Wait()
	return err
}

func (m *Monitor) acceptLoop() {
	defer m.wg.Done()
	for {
		nc, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			_ = nc.Close()
			return
		}
		m.conns[nc] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer func() {
				_ = nc.Close()
				m.mu.Lock()
				delete(m.conns, nc)
				m.mu.Unlock()
			}()
			// The two reads a client makes are answered by the connection's
			// reader; joins, heartbeats and GL updates may wait on the
			// journal.
			wire.ServeInline(nc, m.handle, wire.DefaultServeWorkers,
				wire.TypeClusterInfo, wire.TypeMonitorStats)
		}()
	}
}

// handle times and records every request around dispatch, mirroring the MDS
// wrapper: one op-latency histogram sample per wire op type and one trace
// event carrying the envelope's ReqID and sending span.
func (m *Monitor) handle(env *wire.Envelope) (interface{}, error) {
	start := time.Now()
	resp, path, err := m.dispatch(env)
	end := time.Now()
	d := end.Sub(start)
	m.opStats.Observe(env.Type, d)
	m.rec.RecordAt(end, obs.Event{
		Kind:  obs.KindOp,
		Op:    env.Type,
		ReqID: env.ReqID,
		From:  env.Span,
		Path:  path,
		DurUS: d.Microseconds(),
		Err:   obs.ErrString(err),
	})
	return resp, err
}

// dispatch decodes and routes one request, additionally returning the
// namespace path the request concerned (for the trace event).
func (m *Monitor) dispatch(env *wire.Envelope) (interface{}, string, error) {
	switch env.Type {
	case wire.TypeJoin:
		var req wire.JoinRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := m.handleJoin(&req)
		return resp, "", err
	case wire.TypeHeartbeat:
		var req wire.HeartbeatRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := m.handleHeartbeat(&req)
		return resp, "", err
	case wire.TypeGLUpdate:
		var req wire.GLUpdateRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := m.handleGLUpdate(&req)
		return resp, req.Entry.Path, err
	case wire.TypeClusterInfo:
		resp, err := m.handleClusterInfo()
		return resp, "", err
	case wire.TypeTransferDone:
		var req wire.TransferDoneRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := m.handleTransferDone(&req)
		return resp, req.RootPath, err
	case wire.TypeTransferFailed:
		var req wire.TransferFailedRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := m.handleTransferFailed(&req)
		return resp, req.RootPath, err
	case wire.TypeMonitorStats:
		resp, err := m.handleMonitorStats()
		return resp, "", err
	case wire.TypeObsDump:
		var req wire.ObsDumpRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := m.handleObsDump(&req)
		return resp, "", err
	default:
		return nil, "", fmt.Errorf("monitor: unknown message type %q", env.Type)
	}
}

func (m *Monitor) handleObsDump(req *wire.ObsDumpRequest) (*wire.ObsDumpResponse, error) {
	events, dropped := m.rec.Since(req.SinceSeq, 0)
	seq := req.SinceSeq
	if n := len(events); n > 0 {
		seq = events[n-1].Seq
	}
	return &wire.ObsDumpResponse{
		Node:    m.rec.Node(),
		Seq:     seq,
		Dropped: dropped,
		Events:  events,
		Ops:     m.opStats.Latencies(),
	}, nil
}

func (m *Monitor) handleJoin(req *wire.JoinRequest) (*wire.JoinResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Reuse a dead member slot first (replacement server), else append.
	id := -1
	for _, mem := range m.members {
		if !mem.alive {
			id = mem.id
			break
		}
	}
	if id == -1 {
		if len(m.members) >= m.cfg.Servers {
			return nil, ErrClusterFull
		}
		id = len(m.members)
		m.members = append(m.members, &member{id: id})
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
			m.subtreeOwner[root] = id
			m.journalLocked("owner", &walOwner{Root: root, Server: id})
		}
		adopted[root] = true
	}

	// Refresh index addresses for subtrees owned by this slot. Roots with a
	// recovery push in flight stay out: the push's destination is about to
	// commit as their owner, and advertising (or materialising, below) them
	// on the joiner would leave one root served from two places.
	for root, owner := range m.subtreeOwner {
		if owner != id {
			continue
		}
		if _, moving := m.inFlight[root]; moving {
			continue
		}
		m.index[root] = req.Addr
	}
	m.indexVer++

	resp := &wire.JoinResponse{
		ServerID:  id,
		GLVersion: m.glVersion,
		IndexVer:  m.indexVer,
		Index:     m.indexSnapshotLocked(),
	}
	for root := range adopted {
		resp.AdoptedSubtrees = append(resp.AdoptedSubtrees, root)
	}
	sort.Strings(resp.AdoptedSubtrees)
	for _, e := range m.glEntries {
		resp.GlobalLayer = append(resp.GlobalLayer, *e)
	}
	sort.Slice(resp.GlobalLayer, func(i, j int) bool {
		return resp.GlobalLayer[i].Path < resp.GlobalLayer[j].Path
	})
	for root, owner := range m.subtreeOwner {
		if owner != id || adopted[root] {
			continue // adopted roots: the joiner already holds fresher data
		}
		if _, moving := m.inFlight[root]; moving {
			continue // a racing recovery push will commit elsewhere
		}
		if entries := m.subtreeEntriesLocked(root); len(entries) > 0 {
			resp.Subtrees = append(resp.Subtrees, entries)
		}
	}
	sort.Slice(resp.Subtrees, func(i, j int) bool {
		return resp.Subtrees[i][0].Path < resp.Subtrees[j][0].Path
	})
	return resp, nil
}

// subtreeEntriesLocked materialises a subtree's entries from the
// authoritative tree. Callers hold m.mu.
func (m *Monitor) subtreeEntriesLocked(rootPath string) []wire.Entry {
	n, err := m.tree.Lookup(rootPath)
	if err != nil {
		return nil
	}
	nodes := m.tree.SubtreeNodes(n)
	out := make([]wire.Entry, 0, len(nodes))
	for _, sn := range nodes {
		out = append(out, *entryFor(m.tree, sn))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func (m *Monitor) indexSnapshotLocked() map[string]string {
	out := make(map[string]string, len(m.index))
	for k, v := range m.index {
		out[k] = v
	}
	return out
}

func (m *Monitor) handleHeartbeat(req *wire.HeartbeatRequest) (*wire.HeartbeatResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nHeartbeats++
	if req.ServerID < 0 || req.ServerID >= len(m.members) {
		return nil, fmt.Errorf("monitor: heartbeat from unknown server %d", req.ServerID)
	}
	mem := m.members[req.ServerID]
	// A stale ID from before a Monitor restart can collide with a slot that
	// was since granted to a different server; adopting the beat would make
	// two servers flap one slot's address. Reject it as unknown so the
	// sender re-joins and is assigned its own slot.
	if req.Addr != "" && mem.addr != "" && mem.addr != req.Addr {
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
	// push materialises paths born after bootstrap, and journal the batch:
	// a restarted Monitor then recovers the same tree.
	if len(req.CreatedPaths) > 0 {
		for _, e := range req.CreatedPaths {
			if e.Kind == wire.EntryDir {
				_, _ = m.tree.MkdirAll(e.Path)
			} else {
				_, _ = m.tree.AddFile(e.Path)
			}
		}
		m.journalLocked("ll_paths", &walLLPaths{Entries: req.CreatedPaths})
	}

	m.checkFailuresLocked()
	m.planAdjustmentLocked()

	resp := &wire.HeartbeatResponse{
		GLVersion:       m.glVersion,
		IndexVer:        m.indexVer,
		JournalDegraded: m.journalDegraded,
	}
	if req.GLVersion < m.glVersion {
		for _, e := range m.glEntries {
			resp.GlobalLayer = append(resp.GlobalLayer, *e)
		}
		sort.Slice(resp.GlobalLayer, func(i, j int) bool {
			return resp.GlobalLayer[i].Path < resp.GlobalLayer[j].Path
		})
	}
	if req.IndexVer < m.indexVer {
		resp.Index = m.indexSnapshotLocked()
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
			// Commands queued for (or issued to) the dead server can never
			// complete; release their subtrees back to the planner so
			// recovery and rebalancing are not wedged behind them.
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
	// Entries are pushed from the authoritative copy first; ownership and
	// the index commit only after the install succeeds, so clients are never
	// routed to a server that does not hold the data yet. A failed push
	// clears the in-flight marker and is retried on a later heartbeat.
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

// recoverSubtreeLocked reserves a subtree for its recovery destination,
// pushes it there and, on success, commits ownership and publishes the new
// index. Callers hold m.mu.
func (m *Monitor) recoverSubtreeLocked(rootPath string, destID int, destAddr string) {
	m.inFlight[rootPath] = flight{dest: destID}
	entries := m.subtreeEntriesLocked(rootPath)
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
		err := installEntries(destAddr, rootPath, entries)
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
			// subtree before it is homed anywhere else.
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				_ = uninstallSubtree(destAddr, rootPath)
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
		m.subtreeOwner[rootPath] = destID
		m.index[rootPath] = destAddr
		m.journalLocked("owner", &walOwner{Root: rootPath, Server: destID})
		m.indexVer++
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

// pushSubtreeLocked installs a subtree's entries onto the destination MDS
// directly from the monitor's authoritative copy. Callers hold m.mu.
func (m *Monitor) pushSubtreeLocked(rootPath, destAddr string) {
	entries := m.subtreeEntriesLocked(rootPath)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		_ = installEntries(destAddr, rootPath, entries)
	}()
}

// installEntries ships one subtree to an MDS with a per-call deadline, so a
// hung destination cannot pin the push goroutine (and with it the subtree's
// in-flight marker) forever.
func installEntries(destAddr, rootPath string, entries []wire.Entry) error {
	conn, err := wire.DialCall(destAddr, 2*time.Second, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	return conn.Call(wire.TypeInstall, &wire.InstallRequest{
		RootPath: rootPath, Entries: entries,
	}, nil)
}

// uninstallSubtree tells an MDS to drop a subtree copy left by a superseded
// recovery push. Best-effort: the target may be dead or never have received
// the install, and either way the ack (or the error) ends the matter.
func uninstallSubtree(destAddr, rootPath string) error {
	conn, err := wire.DialCall(destAddr, 2*time.Second, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	return conn.Call(wire.TypeUninstall, &wire.UninstallRequest{RootPath: rootPath}, nil)
}

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

// handleGLUpdate commits one global-layer write. m.mu is what orders GL
// writes: each takes the next GL version and, on its path, the next entry
// version, under the one lock every other reader and writer of the GL holds.
func (m *Monitor) handleGLUpdate(req *wire.GLUpdateRequest) (*wire.GLUpdateResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.glEntries[req.Entry.Path]
	switch req.Op {
	case "create":
		if ok {
			return nil, fmt.Errorf("monitor: %s already exists in GL", req.Entry.Path)
		}
		created := req.Entry
		created.Version = 1
		e = &created
		m.glEntries[e.Path] = e
		// Mirror into the authoritative tree so future joins see it.
		if e.Kind == wire.EntryDir {
			_, _ = m.tree.MkdirAll(e.Path)
		} else {
			_, _ = m.tree.AddFile(e.Path)
		}
	case "setattr":
		if !ok {
			return nil, fmt.Errorf("monitor: %s not in GL", req.Entry.Path)
		}
		e.Size = req.Entry.Size
		e.Mode = req.Entry.Mode
		e.Version++
	default:
		return nil, fmt.Errorf("monitor: unknown GL op %q", req.Op)
	}
	m.glVersion++
	m.journalLocked("gl_update", &walGLUpdate{Op: req.Op, Entry: *e, GLVersion: m.glVersion})
	return &wire.GLUpdateResponse{Entry: *e, GLVersion: m.glVersion}, nil
}

func (m *Monitor) handleClusterInfo() (*wire.ClusterInfoResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := &wire.ClusterInfoResponse{
		Index:    m.indexSnapshotLocked(),
		IndexVer: m.indexVer,
	}
	for _, mem := range m.members {
		if mem.alive {
			resp.Servers = append(resp.Servers, mem.addr)
		}
	}
	return resp, nil
}

func (m *Monitor) handleTransferDone(req *wire.TransferDoneRequest) (*wire.LockResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
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
		m.subtreeOwner[req.RootPath] = f.dest
		delete(m.inFlight, req.RootPath)
		m.journalLocked("owner", &walOwner{Root: req.RootPath, Server: f.dest})
	}
	m.pinned[req.RootPath] = pin{dest: core.AnyServer, until: m.round + pinRounds}
	m.nTransfersDone++
	m.index[req.RootPath] = req.DestAddr
	m.indexVer++
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

// handleTransferFailed releases a NACKed transfer's in-flight marker so the
// subtree can be re-scheduled — to a different destination: the failed one
// goes into the planner's exclusion set for pinRounds.
func (m *Monitor) handleTransferFailed(req *wire.TransferFailedRequest) (*wire.LockResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
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

// handleMonitorStats reports coordinator counters and the member table.
func (m *Monitor) handleMonitorStats() (*wire.MonitorStatsResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := &wire.MonitorStatsResponse{
		Heartbeats:        m.nHeartbeats,
		TransfersPlanned:  m.nTransfersPlanned,
		TransfersDone:     m.nTransfersDone,
		TransfersFailed:   m.nTransfersFailed,
		TransfersReissued: m.nTransfersReissued,
		GLVersion:         m.glVersion,
		IndexVer:          m.indexVer,
		JournalDegraded:   m.journalDegraded,
		ServeIO:           wire.ServeIO.Snapshot(),
		ConnIO:            wire.ConnIO.Snapshot(),
		CodecFallbacks:    wire.CodecFallbacks.Snapshot(),
	}
	for _, mem := range m.members {
		resp.Members = append(resp.Members, wire.MemberInfo{
			ID: mem.id, Addr: mem.addr, Alive: mem.alive,
			Load: mem.load, Ops: mem.ops,
		})
	}
	return resp, nil
}

// ReevaluateGlobalLayer re-runs Tree-Splitting and Subtree-Allocation
// against the popularity accumulated from heartbeat access counters — the
// infrequent global-layer adjustment of Sec. IV-B ("typically once a day").
// The new global layer and index are published with bumped versions; every
// local-layer subtree is pushed to its (possibly new) owner, and servers
// drop subtrees the fresh index maps elsewhere.
func (m *Monitor) ReevaluateGlobalLayer() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.d2.Resplit(); err != nil {
		return fmt.Errorf("monitor: resplit: %w", err)
	}
	// Rebuild the global layer, preserving committed entry versions.
	old := m.glEntries
	m.glEntries = make(map[string]*wire.Entry, len(m.d2.Split().GL))
	for id := range m.d2.Split().GL {
		n := m.tree.Node(id)
		if n == nil {
			continue
		}
		path := m.tree.Path(n)
		if e, ok := old[path]; ok {
			m.glEntries[path] = e
			continue
		}
		m.glEntries[path] = entryFor(m.tree, n)
	}
	// Rebuild subtree ownership from the fresh allocation; superseded
	// transfers are dropped.
	m.subtreeOwner = make(map[string]int)
	m.index = make(map[string]string)
	m.transfers = make(map[int][]wire.TransferCommand)
	m.inFlight = make(map[string]flight)
	m.pinned = make(map[string]pin)
	m.migIDs = make(map[string]string)
	for i, st := range m.d2.Subtrees() {
		owner, _ := m.d2.SubtreeOwner(i)
		id := int(owner)
		root := m.tree.Path(m.tree.Node(st.Root))
		m.subtreeOwner[root] = id
		m.journalLocked("owner", &walOwner{Root: root, Server: id})
		if id < len(m.members) && m.members[id].alive {
			m.index[root] = m.members[id].addr
			m.pushSubtreeLocked(root, m.members[id].addr)
		}
	}
	m.glVersion++
	m.indexVer++
	// Subtrees the fresh allocation gave to a dead server are orphans like
	// any other: the failover path re-homes them.
	m.checkFailuresLocked()
	return nil
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

// Obs returns the Monitor's event recorder (debug endpoints, tests).
func (m *Monitor) Obs() *obs.Recorder { return m.rec }

// OpLatencies summarises the Monitor's per-op latency histograms.
func (m *Monitor) OpLatencies() map[string]wire.LatencySummary {
	return m.opStats.Latencies()
}

// Stats returns the coordinator counters and member table (tools, tests).
func (m *Monitor) Stats() *wire.MonitorStatsResponse {
	resp, _ := m.handleMonitorStats()
	return resp
}

// Members returns (id, addr, alive) tuples for tests and tools.
func (m *Monitor) Members() []struct {
	ID    int
	Addr  string
	Alive bool
} {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]struct {
		ID    int
		Addr  string
		Alive bool
	}, len(m.members))
	for i, mem := range m.members {
		out[i].ID = mem.id
		out[i].Addr = mem.addr
		out[i].Alive = mem.alive
	}
	return out
}

// GLVersion returns the current global-layer version.
// HasPath reports whether the Monitor's authoritative namespace tree
// resolves path — heartbeat CreatedPaths deltas included, which is what
// failover tests wait on before killing an owner. Safe against the
// serving path (the tree is only mutated under m.mu).
func (m *Monitor) HasPath(path string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.tree.Lookup(path)
	return err == nil
}

func (m *Monitor) GLVersion() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.glVersion
}

// SetClock overrides the time source (tests).
func (m *Monitor) SetClock(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
}
