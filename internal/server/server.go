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

	"d2tree/internal/namespace"
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
	// land in <WALDir>/snapshot.img, and a restart recovers subtrees, op
	// counts and GL version from snapshot+replay before rejoining. Empty =
	// memory-only (the pre-durability behaviour).
	WALDir string
	// SnapshotInterval is the namespace snapshot + log truncation cadence
	// when WALDir is set (default wal.CompactEvery, 5s).
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
		c.SnapshotInterval = wal.CompactEvery
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
	// journal commits the local layer's records, memory-only until Start
	// opens it on WALDir. Like ln it is set before any goroutine can observe
	// it and is read-only thereafter.
	journal *wal.Journal[record]

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
	// tail is the ticket of the newest journaled record (journal.Commit). A
	// blocking handler notes it under mu and waits on it after unlocking.
	tail *wal.Ticket
	// applied, when set (tests), runs under mu after every applied record.
	applied func()

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
	s := &Server{
		cfg:       cfg,
		store:     newStore(),
		subtrees:  make(map[string]bool),
		index:     rootindex.New(nil),
		overrides: make(map[string]*indexOverride),
		conns:     make(map[net.Conn]struct{}),
		stop:      make(chan struct{}),
		rec:       obs.NewRecorder("mds", 0),
	}
	s.journal, _ = wal.OpenJournal("", "", s.machine()) // memory-only: cannot fail
	return s
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
	if err := s.join(mon); err != nil {
		_ = mon.Close()
		_ = ln.Close()
		s.closeJournal()
		return fmt.Errorf("server: join: %w", err)
	}

	s.wg.Add(2)
	go s.acceptLoop()
	go s.heartbeatLoop()
	s.journal.Run(s.cfg.SnapshotInterval)
	return nil
}

// join registers with the Monitor over mon and installs its answer, durably
// when journaled. It records one "joined" event: how long the join call
// took, how many entries were installed and how long installing them took.
func (s *Server) join(mon *wire.RetryingConn) error {
	start := time.Now()
	var join wire.JoinResponse
	if err := mon.Call(wire.TypeJoin, s.joinRequest(), &join); err != nil {
		return err
	}
	called := time.Now()
	s.mu.Lock()
	s.mon = mon
	installed := s.applyJoinLocked(&join)
	tail := s.tail
	s.mu.Unlock()
	s.journal.Wait(tail)
	end := time.Now()
	s.rec.RecordAt(end, obs.Event{
		Kind: obs.KindCluster,
		Op:   "joined",
		Detail: "join rpc " + ms(called.Sub(start)) + " ms, " + strconv.Itoa(installed) +
			" entries installed in " + ms(end.Sub(called)) + " ms",
		DurUS: end.Sub(start).Microseconds(),
	})
	return nil
}

// ms renders d in milliseconds to one decimal, for event details.
func ms(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Microseconds())/1000, 'f', 1, 64)
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

// applyJoinLocked installs a JoinResponse: identity, the global-layer
// replica, assigned subtrees, and the index. Subtree roots the server
// claimed (its current holdings) but the Monitor did not adopt belong to a
// live owner elsewhere: they are removed before the assigned subtrees
// install, so a recovered-but-reassigned root can never be served from two
// places. It returns the number of entries it installed. Callers hold s.mu.
func (s *Server) applyJoinLocked(join *wire.JoinResponse) int {
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
			s.journal.Commit(&wire.RemoveRecord{Root: root})
		}
	}
	installed := len(join.GlobalLayer)
	for _, t := range join.Trees {
		installed += len(t.Nodes)
	}
	s.store.reserve(installed)
	s.store.replaceGL(join.GlobalLayer)
	s.commitInstallLocked(join.Trees)
	s.index = rootindex.New(join.Index)
	return installed
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
	top := topPaths(hot, 128) // before the lock: it reads only hot
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
		HotPaths:     top,
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
	return s.join(mon) == nil
}

func (s *Server) applyHeartbeat(resp *wire.HeartbeatResponse) {
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
		// are removed, so a restart cannot resurrect a claim to data that
		// now lives elsewhere; their new owners receive Installs from the
		// Monitor.
		self := s.Addr()
		for root := range s.subtrees {
			if owner, ok := s.index.Get(root); ok && owner != self {
				s.journal.Commit(&wire.RemoveRecord{Root: root})
			}
		}
	}
	s.indexVer = resp.IndexVer
	transfers := resp.Transfers
	tail := s.tail
	s.mu.Unlock()
	s.journal.Wait(tail)

	for _, cmd := range transfers {
		s.executeTransfer(cmd)
	}
}

// executeTransfer ships one owned subtree to the destination MDS and
// confirms completion to the Monitor. A command for a root this server does
// not hold, or a transfer that cannot reach the destination, is NACKed with
// TransferFailed so the Monitor releases the subtree for rescheduling instead
// of leaving it wedged in flight until the command times out.
func (s *Server) executeTransfer(cmd wire.TransferCommand) {
	s.mu.Lock()
	if !s.subtrees[cmd.RootPath] {
		s.mu.Unlock()
		s.nackTransfer(cmd, errRootNotHeld)
		return
	}
	tree := s.store.tree(cmd.RootPath, false)
	s.mu.Unlock()

	s.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "transfer_start",
		ReqID:  cmd.ReqID,
		Path:   cmd.RootPath,
		Detail: "dest " + cmd.DestAddr + ", " + strconv.Itoa(len(tree.Nodes)) + " nodes",
	})
	if err := s.installOnDest(cmd, tree); err != nil {
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
	raced := s.unshippedLocked(tree)
	s.journal.Commit(&wire.RemoveRecord{Root: cmd.RootPath})
	s.index.Set(cmd.RootPath, cmd.DestAddr)
	s.overrides[cmd.RootPath] = &indexOverride{addr: cmd.DestAddr, ttl: 50}
	tail := s.tail
	mon := s.mon
	id := s.id
	s.mu.Unlock()
	// The removal must be durable before TransferDone commits ownership to
	// the destination: a source that crashes past this point replays the
	// remove and cannot re-claim the subtree it shipped away.
	s.journal.Wait(tail)
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
	if mon == nil {
		return
	}
	// The entries are gone from here whatever the answer: a refused done
	// leaves a stray copy at the destination, which the Monitor routes
	// elsewhere (DESIGN.md §10, "Owner commits"). The event makes it visible.
	var ans wire.LockResponse
	if err := mon.CallTraced(wire.TypeTransferDone, cmd.ReqID, s.rec.Node(), &wire.TransferDoneRequest{
		ServerID: id, RootPath: cmd.RootPath, DestAddr: cmd.DestAddr, ReqID: cmd.ReqID,
	}, &ans); err != nil || !ans.Granted {
		s.rec.Record(obs.Event{
			Kind:   obs.KindMigration,
			Op:     "done_refused",
			ReqID:  cmd.ReqID,
			Path:   cmd.RootPath,
			Detail: "dest " + cmd.DestAddr,
			Err:    obs.ErrString(err),
		})
	}
}

// installOnDest pushes a subtree to the transfer destination with a
// per-call deadline.
func (s *Server) installOnDest(cmd wire.TransferCommand, tree wire.Subtree) error {
	dest, err := wire.DialCall(cmd.DestAddr, s.cfg.DialTimeout, s.cfg.CallTimeout)
	if err != nil {
		return err
	}
	defer func() { _ = dest.Close() }()
	return dest.CallTraced(wire.TypeInstall, cmd.ReqID, s.rec.Node(), &wire.InstallRequest{Tree: tree}, nil)
}

// errRootNotHeld NACKs a transfer command for a root this server does not
// hold: one it shipped already, or one a join or restart took away.
var errRootNotHeld = errors.New("source does not hold the root")

// nackTransfer counts and records a failed transfer command and reports it
// back to the Monitor.
func (s *Server) nackTransfer(cmd wire.TransferCommand, cause error) {
	s.transferFail.Add(1)
	s.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "transfer_failed",
		ReqID:  cmd.ReqID,
		Path:   cmd.RootPath,
		Detail: "dest " + cmd.DestAddr,
		Err:    cause.Error(),
	})
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

// topPaths returns the k highest-count entries of the access counters, a tie
// going to the smaller path. One pass keeps the best k seen so far in a
// min-heap whose root is the lowest-ranked of them: O(n log k).
func topPaths(counts map[string]int64, k int) map[string]int64 {
	if len(counts) <= k {
		return counts
	}
	h := make([]pathCount, 0, k)
	for p, c := range counts {
		switch e := (pathCount{p, c}); {
		case len(h) < k:
			if h = append(h, e); len(h) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftDown(h, i)
				}
			}
		case ranksBelow(h[0], e):
			h[0] = e
			siftDown(h, 0)
		}
	}
	out := make(map[string]int64, k)
	for _, e := range h {
		out[e.path] = e.count
	}
	return out
}

type pathCount struct {
	path  string
	count int64
}

// ranksBelow orders access counts: fewer accesses rank lower, and of equal
// counts the larger path.
func ranksBelow(a, b pathCount) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	return a.path > b.path
}

// siftDown restores the min-heap order of h below i.
func siftDown(h []pathCount, i int) {
	for {
		low := i
		for _, c := range [...]int{2*i + 1, 2*i + 2} {
			if c < len(h) && ranksBelow(h[c], h[low]) {
				low = c
			}
		}
		if low == i {
			return
		}
		h[i], h[low] = h[low], h[i]
		i = low
	}
}

func sortByPath(entries []wire.Entry) {
	slices.SortFunc(entries, func(a, b wire.Entry) int { return strings.Compare(a.Path, b.Path) })
}

// unshippedLocked counts how the subtree at shipped.Path differs from
// shipped, the copy executeTransfer took before it released the lock:
// entries created, changed (any version differs) or gone since.
func (s *Server) unshippedLocked(shipped wire.Subtree) int {
	versions := make(map[string]int64, len(shipped.Nodes))
	paths := wire.PathsOf([]wire.Subtree{shipped})
	for i, n := range shipped.Nodes {
		if n.Kind != 0 {
			versions[paths.At(i)] = n.Version
		}
	}
	n := 0
	eachPath(s.store.nodes[shipped.Path], shipped.Path, func(path string, nd *namespace.Node) {
		if nd.Kind() == 0 {
			return
		}
		if v, ok := versions[path]; !ok || v != nd.Version() {
			n++
		}
		delete(versions, path)
	})
	return n + len(versions)
}
