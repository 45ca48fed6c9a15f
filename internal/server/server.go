// Package server implements a D2-Tree metadata server (MDS): it joins the
// cluster through the Monitor, hosts a replica of the global layer plus its
// assigned local-layer subtrees, serves Lookup/Create/SetAttr/Readdir,
// redirects queries it cannot serve using the local index (Sec. IV-A2),
// heartbeats its load to the Monitor, and executes subtree transfers during
// dynamic adjustment.
//
// All Monitor traffic flows over a deadline-armed, self-healing
// wire.RetryingConn: a hung or restarted Monitor costs at most one call
// timeout per heartbeat tick, never a wedged goroutine, and the channel
// redials transparently once the Monitor returns. A server whose identity
// the Monitor no longer recognises (Monitor restart) re-joins and resumes.
package server

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d2tree/internal/obs"
	"d2tree/internal/rootindex"
	"d2tree/internal/stats"
	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// Config parameterises an MDS.
type Config struct {
	// Addr is the TCP listen address (use "127.0.0.1:0" in tests).
	Addr string
	// MonitorAddr is the Monitor's address.
	MonitorAddr string
	// HeartbeatInterval defaults to 500ms.
	HeartbeatInterval time.Duration
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds every RPC attempt (default 2s). A call that
	// exceeds it fails with a timeout and poisons its connection; nothing
	// blocks past the deadline.
	CallTimeout time.Duration
	// Retry bounds redial/backoff on Monitor and transfer channels.
	Retry wire.RetryPolicy
	// EntryLease is the cache lease granted to clients on entry-carrying
	// responses (Lookup, SetAttr, Rename, Revalidate): how long a client
	// may serve the entry locally before revalidating, and therefore the
	// bound on cross-client staleness for reads. Default 2s; negative
	// disables lease grants (clients then fall back to their own default).
	EntryLease time.Duration
	// WALDir enables durability: local-layer mutations are journaled to
	// <WALDir>/mds.wal through a group-commit batcher, periodic snapshots
	// land in <WALDir>/snapshot.json, and a restart recovers subtrees, op
	// counts and GL version from snapshot+replay before rejoining. Empty =
	// memory-only (the pre-durability behaviour).
	WALDir string
	// SnapshotInterval is the namespace snapshot + log truncation cadence
	// when WALDir is set (default 5s).
	SnapshotInterval time.Duration
}

func (c *Config) applyDefaults() {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.EntryLease == 0 {
		c.EntryLease = 2 * time.Second
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 5 * time.Second
	}
}

// Errors returned to clients.
var (
	ErrNotFound = errors.New("server: path not found")
	ErrExists   = errors.New("server: path already exists")
)

// Server is one MDS process. Construct with New, then Start, then Close.
type Server struct {
	cfg Config
	// ln is set once in Start before any goroutine can observe it and is
	// read-only thereafter (Close's ln.Close is safe concurrently with
	// Accept), so it lives outside mu's guard.
	ln net.Listener
	// wlog/journal are the durability pair (nil when memory-only): the log
	// plus its group-commit batcher. Like ln they are set once in Start
	// before any goroutine can observe them and are read-only thereafter.
	wlog    *wal.Log
	journal *wal.Batcher

	// mu is a read/write lock over the entry store and cluster-state maps:
	// the read-mostly handlers (Lookup, Readdir, Stats) take the read side
	// and run concurrently with each other across connections, each on its
	// connection's reader; mutations (Create, SetAttr, Rename, Install,
	// join/heartbeat state swaps, transfers) take the write side.
	mu        sync.RWMutex
	id        int
	store     *store           // the namespace: GL replica + owned subtrees
	subtrees  map[string]bool  // owned subtree root paths
	index     *rootindex.Index // subtree root path → MDS addr, by inter node
	indexVer  int64
	glVersion int64
	// overrides pins index entries the server knows better than a possibly
	// stale full-index refresh: subtrees it just shipped away (pin → the
	// destination) and subtrees it just received (pin → itself), both
	// windows between the data movement and the Monitor's commit. An entry
	// clears when a refresh confirms it, or after ttl refreshes as a
	// safety valve.
	overrides map[string]*indexOverride
	// newPaths accumulates local-layer entries created since the last
	// successful heartbeat; each heartbeat ships them so the Monitor's
	// authoritative namespace copy converges (bounding what a failover
	// push can miss to one heartbeat window).
	newPaths []wire.Entry

	ops              atomic.Int64
	lastHeartbeatOps int64 // guarded by mu; for recent-load reporting
	// hot counts recent per-path accesses on its own sharded locks, so the
	// hot-path increment neither takes nor extends s.mu; the heartbeat
	// drains it and merges it back if the Monitor was unreachable.
	hot              stats.ShardedCounter
	lookups          atomic.Int64
	creates          atomic.Int64
	setattrs         atomic.Int64
	redirects        atomic.Int64
	transferOK       atomic.Int64
	transferFail     atomic.Int64
	hbMisses         atomic.Int64
	leases           atomic.Int64 // cache leases granted on responses
	revalidateHits   atomic.Int64 // version matched: lease renewed bodiless
	revalidateMisses atomic.Int64 // version stale: entry resent
	snapshots        atomic.Int64 // namespace snapshots written
	walDegraded      atomic.Bool  // latched on first journal failure
	batches          atomic.Int64 // compound frames served
	batchSubOps      atomic.Int64 // sub-ops inside compound frames
	readdirplus      atomic.Int64 // readdirplus listings served

	monMetrics wire.CallMetrics // Monitor-channel RPC outcomes
	hbRTT      stats.Histogram  // successful heartbeat round-trip latency

	rec     *obs.Recorder // event ring; renamed to "mds-<id>" on join
	opStats obs.OpStats   // per-op server-side latency histograms

	mon    *wire.RetryingConn // heartbeat/GL-update channel to the Monitor
	conns  map[net.Conn]struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// indexOverride pins one index entry against stale refreshes.
type indexOverride struct {
	addr string
	ttl  int
}

// maxCreatedPerHeartbeat bounds the created-paths delta shipped per tick so
// a create burst cannot bloat one heartbeat frame; the rest queues.
const maxCreatedPerHeartbeat = 4096

// New builds an MDS.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	return &Server{
		cfg:       cfg,
		store:     newStore(),
		subtrees:  make(map[string]bool),
		index:     rootindex.New(nil),
		overrides: make(map[string]*indexOverride),
		conns:     make(map[net.Conn]struct{}),
		stop:      make(chan struct{}),
		rec:       obs.NewRecorder("mds", 0),
	}
}

// Obs returns the server's event recorder (debug endpoints, tests).
func (s *Server) Obs() *obs.Recorder { return s.rec }

// OpLatencies summarises the server's per-op latency histograms.
func (s *Server) OpLatencies() map[string]wire.LatencySummary {
	return s.opStats.Latencies()
}

// Start listens, joins the cluster, installs the initial state, and begins
// heartbeating.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln

	// Recover local-layer state from snapshot+WAL before joining, so the
	// join can claim the recovered subtrees.
	if err := s.openJournal(); err != nil {
		_ = ln.Close()
		return err
	}

	mon := wire.NewRetryingConn(s.cfg.MonitorAddr, wire.RetryOptions{
		DialTimeout: s.cfg.DialTimeout,
		CallTimeout: s.cfg.CallTimeout,
		Policy:      s.cfg.Retry,
		Metrics:     &s.monMetrics,
	})
	var join wire.JoinResponse
	if err := mon.Call(wire.TypeJoin, s.joinRequest(), &join); err != nil {
		_ = mon.Close()
		_ = ln.Close()
		s.closeJournal()
		return fmt.Errorf("server: join: %w", err)
	}
	s.mu.Lock()
	s.mon = mon
	s.applyJoinLocked(&join)
	s.mu.Unlock()

	s.wg.Add(2)
	go s.acceptLoop()
	go s.heartbeatLoop()
	if s.journal != nil {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return nil
}

// joinRequest builds the join (or re-join) registration, claiming every
// subtree root the server currently holds — recovered from disk on a
// restart, or live state on a re-join after a Monitor restart. The Monitor
// adopts claims without a live owner, so the server keeps serving its own
// entries instead of receiving a stale re-materialization.
func (s *Server) joinRequest() *wire.JoinRequest {
	req := &wire.JoinRequest{Addr: s.Addr()}
	s.mu.RLock()
	for root := range s.subtrees {
		req.RecoveredSubtrees = append(req.RecoveredSubtrees, root)
	}
	s.mu.RUnlock()
	sort.Strings(req.RecoveredSubtrees)
	return req
}

// closeJournal flushes and closes the durability pair (no-op memory-only).
func (s *Server) closeJournal() {
	if s.journal != nil {
		_ = s.journal.Close()
	}
	if s.wlog != nil {
		_ = s.wlog.Close()
	}
}

// applyJoinLocked installs a JoinResponse: identity, the global-layer
// replica, assigned subtrees, and the index. Subtree roots the server
// claimed (its current holdings) but the Monitor did not adopt belong to a
// live owner elsewhere: they are dropped — and the drop journaled — before
// the assigned subtrees install, so a recovered-but-reassigned root can
// never be served from two places. Callers hold s.mu.
func (s *Server) applyJoinLocked(join *wire.JoinResponse) {
	s.id = join.ServerID
	s.rec.SetNode("mds-" + strconv.Itoa(join.ServerID))
	s.glVersion = join.GLVersion
	s.indexVer = join.IndexVer
	adopted := make(map[string]bool, len(join.AdoptedSubtrees))
	for _, root := range join.AdoptedSubtrees {
		adopted[root] = true
	}
	for root := range s.subtrees {
		if !adopted[root] {
			s.dropSubtreeLocked(root)
			_ = s.journalLocked("remove", &walSubtreeRec{Root: root})
		}
	}
	s.store.replaceGL(join.GlobalLayer)
	for _, st := range join.Subtrees {
		if len(st) == 0 {
			continue
		}
		s.installLocked(st[0].Path, st)
		_ = s.journalInstallLocked(st[0].Path, st)
	}
	s.index = rootindex.New(join.Index)
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ID returns the server's cluster identity (valid after Start).
func (s *Server) ID() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.id
}

// Close stops serving and waits for background goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	mon := s.mon
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	close(s.stop)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	if mon != nil {
		_ = mon.Close()
	}
	// Force-close in-flight connections so per-conn goroutines unblock even
	// when peers keep pooled connections open.
	for _, nc := range conns {
		_ = nc.Close()
	}
	s.wg.Wait()
	s.closeJournal()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				_ = nc.Close()
				s.mu.Lock()
				delete(s.conns, nc)
				s.mu.Unlock()
			}()
			// The reader of a connection runs these itself: none of their
			// handlers can block (d2vet's inlinecheck). Everything else may
			// wait on a WAL ticket, the Monitor or another MDS.
			wire.ServeInline(nc, s.handle, wire.DefaultServeWorkers,
				wire.TypeLookup, wire.TypeRevalidate, wire.TypeReaddir,
				wire.TypeReaddirPlus, wire.TypeStats, wire.TypeObsDump)
		}()
	}
}

func (s *Server) heartbeatLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.heartbeatOnce()
		}
	}
}

func (s *Server) heartbeatOnce() {
	// Ship the access counters and reset them — the Monitor accumulates.
	// On failure both the counters and the ops delta are merged back below,
	// so a Monitor outage delays load reports instead of losing them.
	hot := s.hot.Drain()
	s.mu.Lock()
	ops := s.ops.Load()
	// Report recent load (ops since the previous heartbeat) rather than the
	// lifetime counter, so the Monitor's pending-pool adjustment reacts to
	// the current hotspot, not history — the decaying-counter behaviour of
	// Sec. IV-B.
	recent := ops - s.lastHeartbeatOps
	s.lastHeartbeatOps = ops
	// Ship the created-paths delta (bounded per tick); the remainder and
	// any failed shipment ride the next heartbeat.
	created := s.newPaths
	if len(created) > maxCreatedPerHeartbeat {
		s.newPaths = created[maxCreatedPerHeartbeat:]
		created = created[:maxCreatedPerHeartbeat]
	} else {
		s.newPaths = nil
	}
	req := &wire.HeartbeatRequest{
		ServerID:     s.id,
		Addr:         s.Addr(),
		Load:         float64(recent),
		Ops:          ops,
		Entries:      s.store.len(),
		GLVersion:    s.glVersion,
		IndexVer:     s.indexVer,
		HotPaths:     topPaths(hot, 128),
		CreatedPaths: created,
	}
	mon := s.mon
	s.mu.Unlock()
	if mon == nil {
		return
	}
	var resp wire.HeartbeatResponse
	start := time.Now()
	// Single attempt: the next tick is the retry, and sleeping in a backoff
	// here would skew the heartbeat cadence the Monitor's failure detector
	// keys off.
	err := mon.CallOnce(wire.TypeHeartbeat, req, &resp)
	if err == nil {
		s.hbRTT.Record(time.Since(start))
		s.applyHeartbeat(&resp)
		return
	}
	s.hbMisses.Add(1)
	if wire.IsRemote(err) && strings.Contains(err.Error(), "unknown server") {
		// A Monitor that restarted has no member table: our identity is
		// gone, so re-join before un-shipping the sample.
		if s.rejoin() {
			s.restoreSample(recent, hot, created)
			return
		}
	}
	// Monitor temporarily unreachable: put the unshipped sample back so the
	// next successful heartbeat carries the whole outage window.
	s.restoreSample(recent, hot, created)
}

// restoreSample merges an unshipped heartbeat sample back into the live
// counters. hot is the full (untruncated) counter map taken by the failed
// heartbeat; new increments that landed meanwhile are preserved, as are
// created paths accumulated since.
func (s *Server) restoreSample(recent int64, hot map[string]int64, created []wire.Entry) {
	s.mu.Lock()
	s.lastHeartbeatOps -= recent
	if len(created) > 0 {
		s.newPaths = append(created, s.newPaths...)
	}
	s.mu.Unlock()
	s.hot.Merge(hot)
}

// rejoin re-registers with a Monitor that lost its member table (restart).
// It reports whether the join succeeded.
func (s *Server) rejoin() bool {
	s.mu.Lock()
	mon := s.mon
	s.mu.Unlock()
	if mon == nil {
		return false
	}
	var join wire.JoinResponse
	if err := mon.Call(wire.TypeJoin, s.joinRequest(), &join); err != nil {
		return false
	}
	s.mu.Lock()
	s.applyJoinLocked(&join)
	s.mu.Unlock()
	return true
}

func (s *Server) applyHeartbeat(resp *wire.HeartbeatResponse) {
	var tickets []*wal.Ticket
	s.mu.Lock()
	if len(resp.GlobalLayer) > 0 {
		s.store.replaceGL(resp.GlobalLayer)
	}
	s.glVersion = resp.GLVersion
	if resp.Index != nil {
		s.index = rootindex.New(resp.Index)
		// Re-apply overrides the refresh hasn't caught up with; once the
		// refresh agrees (or the TTL runs out), the override is done.
		for root, ov := range s.overrides {
			if addr, _ := s.index.Get(root); addr == ov.addr {
				delete(s.overrides, root)
				continue
			}
			ov.ttl--
			if ov.ttl <= 0 {
				delete(s.overrides, root)
				continue
			}
			s.index.Set(root, ov.addr)
		}
		// Reconcile ownership with the fresh index: subtrees the Monitor
		// reassigned elsewhere (e.g. after a global-layer re-evaluation)
		// are dropped — and the drop journaled, so a restart cannot
		// resurrect a claim to data that now lives elsewhere; their new
		// owners receive Installs from the Monitor.
		self := s.Addr()
		for root := range s.subtrees {
			if owner, ok := s.index.Get(root); ok && owner != self {
				s.dropSubtreeLocked(root)
				tickets = append(tickets, s.journalLocked("remove", &walSubtreeRec{Root: root}))
			}
		}
	}
	s.indexVer = resp.IndexVer
	transfers := resp.Transfers
	s.mu.Unlock()
	for _, t := range tickets {
		s.waitDurable(t)
	}

	for _, cmd := range transfers {
		s.executeTransfer(cmd)
	}
}

// executeTransfer ships one owned subtree to the destination MDS and
// confirms completion to the Monitor. A transfer that cannot reach the
// destination is NACKed with TransferFailed so the Monitor releases the
// subtree for rescheduling instead of leaving it wedged in-flight.
func (s *Server) executeTransfer(cmd wire.TransferCommand) {
	s.mu.Lock()
	if !s.subtrees[cmd.RootPath] {
		s.mu.Unlock()
		return
	}
	entries := s.collectSubtreeLocked(cmd.RootPath)
	s.mu.Unlock()

	s.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "transfer_start",
		ReqID:  cmd.ReqID,
		Path:   cmd.RootPath,
		Detail: "dest " + cmd.DestAddr + ", " + strconv.Itoa(len(entries)) + " entries",
	})
	if err := s.installOnDest(cmd, entries); err != nil {
		s.transferFail.Add(1)
		s.rec.Record(obs.Event{
			Kind:   obs.KindMigration,
			Op:     "transfer_failed",
			ReqID:  cmd.ReqID,
			Path:   cmd.RootPath,
			Detail: "dest " + cmd.DestAddr,
			Err:    err.Error(),
		})
		s.nackTransfer(cmd, err)
		return
	}
	// Remove locally only after the destination has the data. The local
	// index (plus an override against stale refreshes) keeps this server
	// redirecting instead of claiming the data it just shipped away. The
	// whole subtree goes, not just what was shipped: handlers serve what the
	// store holds before they check ownership, so an entry left under a root
	// that was given away would be served from here forever. A mutation that
	// landed under the root while the lock was released is therefore lost at
	// this point (DESIGN.md §10); it is counted so the loss is visible.
	s.mu.Lock()
	raced := s.unshippedLocked(cmd.RootPath, entries)
	s.dropSubtreeLocked(cmd.RootPath)
	s.index.Set(cmd.RootPath, cmd.DestAddr)
	s.overrides[cmd.RootPath] = &indexOverride{addr: cmd.DestAddr, ttl: 50}
	removeTicket := s.journalLocked("remove", &walSubtreeRec{Root: cmd.RootPath})
	mon := s.mon
	id := s.id
	s.mu.Unlock()
	// The removal must be durable before TransferDone commits ownership to
	// the destination: a source that crashes past this point replays the
	// remove and cannot re-claim the subtree it shipped away.
	s.waitDurable(removeTicket)
	if raced > 0 {
		s.rec.Record(obs.Event{
			Kind:   obs.KindMigration,
			Op:     "transfer_raced",
			ReqID:  cmd.ReqID,
			Path:   cmd.RootPath,
			Detail: strconv.Itoa(raced) + " mutations after collect, not shipped",
		})
	}
	s.transferOK.Add(1)
	s.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "transfer_done",
		ReqID:  cmd.ReqID,
		Path:   cmd.RootPath,
		Detail: "dest " + cmd.DestAddr,
	})
	if mon != nil {
		_ = mon.CallTraced(wire.TypeTransferDone, cmd.ReqID, s.rec.Node(), &wire.TransferDoneRequest{
			ServerID: id, RootPath: cmd.RootPath, DestAddr: cmd.DestAddr, ReqID: cmd.ReqID,
		}, nil)
	}
}

// installOnDest pushes a subtree's entries to the transfer destination with
// a per-call deadline.
func (s *Server) installOnDest(cmd wire.TransferCommand, entries []wire.Entry) error {
	dest, err := wire.DialCall(cmd.DestAddr, s.cfg.DialTimeout, s.cfg.CallTimeout)
	if err != nil {
		return err
	}
	defer func() { _ = dest.Close() }()
	req := &wire.InstallRequest{RootPath: cmd.RootPath, Entries: entries}
	return dest.CallTraced(wire.TypeInstall, cmd.ReqID, s.rec.Node(), req, nil)
}

// nackTransfer reports a failed transfer command back to the Monitor.
func (s *Server) nackTransfer(cmd wire.TransferCommand, cause error) {
	s.mu.Lock()
	mon := s.mon
	id := s.id
	s.mu.Unlock()
	if mon == nil {
		return
	}
	_ = mon.CallTraced(wire.TypeTransferFailed, cmd.ReqID, s.rec.Node(), &wire.TransferFailedRequest{
		ServerID: id, RootPath: cmd.RootPath, DestAddr: cmd.DestAddr,
		Reason: cause.Error(), ReqID: cmd.ReqID,
	}, nil)
}

// topPaths returns the k highest-count entries of the access counters.
func topPaths(counts map[string]int64, k int) map[string]int64 {
	if len(counts) <= k {
		return counts
	}
	type kv struct {
		path  string
		count int64
	}
	all := make([]kv, 0, len(counts))
	for p, c := range counts {
		all = append(all, kv{p, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].path < all[j].path
	})
	out := make(map[string]int64, k)
	for _, e := range all[:k] {
		out[e.path] = e.count
	}
	return out
}

// collectSubtreeLocked copies out the subtree at rootPath, sorted by path.
func (s *Server) collectSubtreeLocked(rootPath string) []wire.Entry {
	var out []wire.Entry
	s.store.walk(rootPath, func(e *wire.Entry, _ bool) { out = append(out, *e) })
	sortByPath(out)
	return out
}

func sortByPath(entries []wire.Entry) {
	slices.SortFunc(entries, func(a, b wire.Entry) int { return strings.Compare(a.Path, b.Path) })
}

// unshippedLocked counts how the subtree at root differs from shipped, the
// copy executeTransfer collected before it released the lock: entries
// created, changed (any version differs) or gone since.
func (s *Server) unshippedLocked(root string, shipped []wire.Entry) int {
	versions := make(map[string]int64, len(shipped))
	for i := range shipped {
		versions[shipped[i].Path] = shipped[i].Version
	}
	n := 0
	s.store.walk(root, func(e *wire.Entry, _ bool) {
		if v, ok := versions[e.Path]; !ok || v != e.Version {
			n++
		}
		delete(versions, e.Path)
	})
	return n + len(versions)
}

// installLocked takes ownership of the subtree at root and stores its
// entries. An installed path belongs to the local layer from now on, even
// one the global-layer replica held before a re-evaluation demoted it.
func (s *Server) installLocked(root string, entries []wire.Entry) {
	s.subtrees[root] = true
	for _, e := range entries {
		s.store.put(e, false)
	}
}

// dropSubtreeLocked forgets an owned subtree and its local-layer entries.
func (s *Server) dropSubtreeLocked(root string) {
	delete(s.subtrees, root)
	s.store.dropSubtree(root)
}
