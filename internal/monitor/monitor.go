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
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
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
	migIDs map[string]string
	// journal group-commits the records of commitLocked to wlog; both are nil
	// when WALPath is unset. tail is the newest record's ticket.
	journal *wal.Batcher
	wlog    *wal.Log
	tail    *wal.Ticket
	// journalDegraded latches on the journal's first failed flush: the
	// Monitor keeps serving (availability over durability) but the stat is
	// surfaced in MonitorStats and heartbeat responses so operators learn
	// the recovery story has silently become memory-only.
	journalDegraded atomic.Bool
	// applied, when set, runs after every applied record (tests).
	applied    func()
	lastAdjust time.Time
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
		cfg:       cfg,
		tree:      t,
		d2:        d2,
		transfers: make(map[int][]wire.TransferCommand),
		inFlight:  make(map[string]flight),
		pinned:    make(map[string]pin),
		migIDs:    make(map[string]string),
		rec:       obs.NewRecorder("monitor", 0),
		ids:       obs.NewIDGen("m", 0),
		now:       time.Now,
		conns:     make(map[net.Conn]struct{}),
		stop:      make(chan struct{}),
	}
	// The boot layer is the state every log starts from: applied, never logged.
	gl, owners := m.layerLocked()
	m.applyLocked(&walLayer{Reset: true, GLVersion: 1, Entries: gl, Owners: owners})
	if cfg.WALPath != "" {
		if err := m.recoverFromWAL(cfg.WALPath); err != nil {
			return nil, err
		}
		if m.wlog, err = wal.Open(cfg.WALPath); err != nil {
			return nil, err
		}
		m.journal = wal.NewBatcher(m.wlog)
	}
	return m, nil
}

// entryFor is the entry the Monitor materialises for n, at path.
func entryFor(path string, n *namespace.Node) wire.Entry {
	return wire.Entry{Path: path, Kind: kindOf(n), Version: 1}
}

func kindOf(n *namespace.Node) wire.EntryKind {
	if n.IsDir() {
		return wire.EntryDir
	}
	return wire.EntryFile
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
	// Force-close in-flight connections so per-conn goroutines unblock even
	// when peers keep pooled connections open.
	for _, nc := range conns {
		_ = nc.Close()
	}
	m.wg.Wait()
	// Nothing commits any more: flush the last window, then close the log.
	if m.journal != nil {
		_ = m.journal.Close()
		if jerr := m.wlog.Close(); err == nil {
			err = jerr
		}
	}
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
			// Only the stats read is answered by the connection's reader:
			// every other response, cluster_info included, waits until the
			// state it carries is durable.
			wire.ServeInline(nc, m.handle, wire.DefaultServeWorkers, wire.TypeMonitorStats)
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
	m.rec.RecordOp(env, path, end, d, err)
	return resp, err
}

// dispatch routes one request, additionally returning the namespace path
// it concerned (for the trace event).
func (m *Monitor) dispatch(env *wire.Envelope) (interface{}, string, error) {
	switch env.Type {
	case wire.TypeJoin:
		return serve(m, env, m.joinLocked, nil)
	case wire.TypeHeartbeat:
		return serve(m, env, m.heartbeatLocked, nil)
	case wire.TypeGLUpdate:
		return serve(m, env, m.glUpdateLocked, func(r *wire.GLUpdateRequest) string { return r.Entry.Path })
	case wire.TypeClusterInfo:
		resp, err := durably(m, m.clusterInfoLocked)
		return resp, "", err
	case wire.TypeTransferDone:
		return serve(m, env, m.transferDoneLocked, func(r *wire.TransferDoneRequest) string { return r.RootPath })
	case wire.TypeTransferFailed:
		return serve(m, env, m.transferFailedLocked, func(r *wire.TransferFailedRequest) string { return r.RootPath })
	case wire.TypeMonitorStats:
		return m.Stats(), "", nil
	case wire.TypeObsDump:
		// The event ring and the histograms keep their own locks.
		var req wire.ObsDumpRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		return m.obsDump(&req), "", nil
	default:
		return nil, "", fmt.Errorf("monitor: unknown message type %q", env.Type)
	}
}

// serve decodes an op's request in a frame of its own, so no request is held
// in dispatch's: there it would sit, with every other op's, on the fresh
// goroutine stack of every blocking op through the decode, and push that
// stack past its first segment. It answers through h under m.mu, once the
// answer is durable (durably); path, when set, names the request's path.
func serve[Req, Resp any](m *Monitor, env *wire.Envelope, h func(*Req) (Resp, error), path func(*Req) string) (interface{}, string, error) {
	var req Req
	if err := env.Decode(&req); err != nil {
		return nil, "", err
	}
	resp, err := durably(m, func() (Resp, error) { return h(&req) })
	if path == nil {
		return resp, "", err
	}
	return resp, path(&req), err
}

// obsDump answers an obs_dump from the event ring and the op histograms.
func (m *Monitor) obsDump(req *wire.ObsDumpRequest) *wire.ObsDumpResponse {
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
	}
}

// Stats reports the coordinator counters and the member table: the
// monitor_stats answer, read on the connection's reader without waiting on
// the journal.
func (m *Monitor) Stats() *wire.MonitorStatsResponse {
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
		JournalDegraded:   m.journalDegraded.Load(),
		ServeIO:           wire.ServeIO.Snapshot(),
		ConnIO:            wire.ConnIO.Snapshot(),
		BadFrames:         wire.BadFrames.Load(),
	}
	if m.journal != nil {
		resp.JournalAppends, resp.JournalFlushes = m.journal.Stats()
	}
	for _, mem := range m.members {
		resp.Members = append(resp.Members, wire.MemberInfo{
			ID: mem.id, Addr: mem.addr, Alive: mem.alive,
			Load: mem.load, Ops: mem.ops,
		})
	}
	return resp
}

// Obs returns the Monitor's event recorder (debug endpoints, tests).
func (m *Monitor) Obs() *obs.Recorder { return m.rec }

// OpLatencies summarises the Monitor's per-op latency histograms.
func (m *Monitor) OpLatencies() map[string]wire.LatencySummary {
	return m.opStats.Latencies()
}

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

// GLVersion returns the current global-layer version.
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
