package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"d2tree/internal/obs"
	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// handle times and records every request around dispatch: one op-latency
// histogram sample keyed by wire op type, and one trace event carrying the
// envelope's end-to-end ReqID and the sender's span. The recording path is
// allocation-free (pre-allocated ring, struct copy), so it stays on the
// steady-state hot path.
func (s *Server) handle(env *wire.Envelope) (interface{}, error) {
	s.ops.Add(1)
	start := time.Now()
	resp, path, err := s.dispatch(env)
	end := time.Now()
	d := end.Sub(start)
	s.opStats.Observe(env.Type, d)
	s.rec.RecordOp(env, path, end, d, err)
	return resp, err
}

// dispatch decodes and routes one request, additionally returning the
// namespace path the request concerned (for the trace event).
func (s *Server) dispatch(env *wire.Envelope) (interface{}, string, error) {
	switch env.Type {
	case wire.TypeLookup:
		var req wire.LookupRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleLookup(&req)
		return resp, req.Path, err
	case wire.TypeRevalidate:
		var req wire.RevalidateRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleRevalidate(&req)
		return resp, req.Path, err
	case wire.TypeCreate:
		var req wire.CreateRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleCreate(env, &req)
		return resp, req.Path, err
	case wire.TypeSetAttr:
		var req wire.SetAttrRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleSetAttr(env, &req)
		return resp, req.Path, err
	case wire.TypeReaddir:
		var req wire.ReaddirRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleReaddir(&req)
		return resp, req.Path, err
	case wire.TypeReaddirPlus:
		var req wire.ReaddirPlusRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleReaddirPlus(&req)
		return resp, req.Path, err
	case wire.TypeCreateWithAttrs:
		var req wire.CreateWithAttrsRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleCreateWithAttrs(env, &req)
		return resp, req.Path, err
	case wire.TypeBatch:
		var req wire.BatchRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		path := ""
		if len(req.Ops) > 0 {
			path = req.Ops[0].Path // trace the frame under its first sub-op
		}
		resp, err := s.handleBatch(env, &req)
		return resp, path, err
	case wire.TypeRename:
		var req wire.RenameRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleRename(&req)
		return resp, req.Path, err
	case wire.TypeInstall:
		var req wire.InstallRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleInstall(env, &req)
		return resp, req.RootPath, err
	case wire.TypeUninstall:
		var req wire.UninstallRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleUninstall(&req)
		return resp, req.RootPath, err
	case wire.TypeStats:
		resp, err := s.handleStats()
		return resp, "", err
	case wire.TypeObsDump:
		var req wire.ObsDumpRequest
		if err := env.Decode(&req); err != nil {
			return nil, "", err
		}
		resp, err := s.handleObsDump(&req)
		return resp, "", err
	default:
		return nil, "", fmt.Errorf("server: unknown message type %q", env.Type)
	}
}

// leaseLocked returns the cache lease to stamp on an entry-carrying
// response and the index version it is keyed to. Callers hold s.mu (either
// side); counting the grant is left to the caller so redirects and errors
// never count.
func (s *Server) leaseLocked() (leaseMS, indexVer int64) {
	if s.cfg.EntryLease > 0 {
		leaseMS = s.cfg.EntryLease.Milliseconds()
	}
	return leaseMS, s.indexVer
}

func (s *Server) handleLookup(req *wire.LookupRequest) (*wire.LookupResponse, error) {
	s.lookups.Add(1)
	s.hot.Add(req.Path, 1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, _ := s.store.get(req.Path); e != nil {
		cp := *e
		leaseMS, ver := s.leaseLocked()
		s.leases.Add(1)
		return &wire.LookupResponse{Entry: &cp, LeaseMS: leaseMS, IndexVer: ver}, nil
	}
	if addr, ok := s.index.Owner(req.Path); ok && addr != s.Addr() {
		s.redirects.Add(1)
		return &wire.LookupResponse{Redirect: addr}, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, req.Path)
}

// handleRevalidate answers the client cache's coherence probe: a version
// match renews the lease without resending the body (the common case — one
// small frame each way), a mismatch ships the current entry, and ownership
// is re-checked exactly like a lookup so a migrated path redirects instead
// of false-confirming.
func (s *Server) handleRevalidate(req *wire.RevalidateRequest) (*wire.RevalidateResponse, error) {
	s.hot.Add(req.Path, 1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, _ := s.store.get(req.Path); e != nil {
		leaseMS, ver := s.leaseLocked()
		s.leases.Add(1)
		if e.Version == req.Version {
			s.revalidateHits.Add(1)
			return &wire.RevalidateResponse{Match: true, LeaseMS: leaseMS, IndexVer: ver}, nil
		}
		s.revalidateMisses.Add(1)
		cp := *e
		return &wire.RevalidateResponse{Entry: &cp, LeaseMS: leaseMS, IndexVer: ver}, nil
	}
	if addr, ok := s.index.Owner(req.Path); ok && addr != s.Addr() {
		s.redirects.Add(1)
		return &wire.RevalidateResponse{Redirect: addr}, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, req.Path)
}

func (s *Server) handleCreate(env *wire.Envelope, req *wire.CreateRequest) (*wire.CreateResponse, error) {
	r, err := s.create(env, wire.Entry{Path: req.Path, Kind: req.Kind})
	if err != nil {
		return nil, err
	}
	return &wire.CreateResponse{Entry: r.Entry, Redirect: r.Redirect, LeaseMS: r.LeaseMS, IndexVer: r.IndexVer}, nil
}

// create serves one create outside a batch frame; e carries the requested
// path, kind and attributes (a plain create is one with zero attributes).
func (s *Server) create(env *wire.Envelope, e wire.Entry) (wire.BatchResult, error) {
	if validPath(e.Path) {
		s.hot.Add(e.Path, 1)
	}
	s.mu.Lock()
	res, t, global, err := s.createLocked(e)
	s.mu.Unlock()
	if global {
		return s.glUpdate(env, "create", e)
	}
	s.waitDurable(t)
	return res, err
}

// validPath reports whether path names something below the root.
func validPath(path string) bool {
	return len(path) > 1 && path[0] == '/'
}

// createLocked is the one create body under s.mu, shared by the single-op
// handlers and the batch arms: validation, the exists check, ownership, and
// for a path this server owns the local-layer commit itself. That commit
// needs no cluster coordination. The entry carries a lease so the creator
// can serve its own create from cache (§8b), and the mutation journals
// inside the critical section (WAL order = commit order) while the caller
// waits on the ticket after unlocking, so the fsync never extends the lock
// hold. global reports, with nothing changed, that the path belongs to the
// global layer: the caller goes through glUpdate once the lock is released.
func (s *Server) createLocked(e wire.Entry) (res wire.BatchResult, t *wal.Ticket, global bool, err error) {
	s.creates.Add(1)
	if !validPath(e.Path) {
		return res, nil, false, fmt.Errorf("server: invalid path %q", e.Path)
	}
	if held, _ := s.store.get(e.Path); held != nil {
		return res, nil, false, fmt.Errorf("%w: %s", ErrExists, e.Path)
	}
	addr, ok := s.index.Owner(e.Path)
	if !ok {
		return res, nil, true, nil
	}
	if addr != s.Addr() {
		s.redirects.Add(1)
		res.Redirect = addr
		return res, nil, false, nil
	}
	e.Version = 1
	s.store.put(e, false)
	s.newPaths = append(s.newPaths, e)
	t = s.journalLocked("create", &walEntryRec{Entry: e})
	res.Entry = &e
	res.LeaseMS, res.IndexVer = s.leaseLocked()
	s.leases.Add(1)
	return res, t, false, nil
}

// glUpdate is the one global-layer mutation body, op "create" or "setattr":
// ordered by the Monitor, which answers with the committed entry and the GL
// version the commit produced, then installed in the local replica. The
// replica's glVersion says "I hold every update up to here", so it advances
// only when the answer is the very next version: after a gap — another
// replica committed in between — it stays behind, and the next heartbeat's
// refresh brings what this replica has not seen. The forwarded call keeps the
// client's request identifier so the Monitor's trace event joins the same
// ReqID chain.
func (s *Server) glUpdate(env *wire.Envelope, op string, e wire.Entry) (res wire.BatchResult, err error) {
	s.mu.RLock()
	mon, id := s.mon, s.id
	s.mu.RUnlock()
	var resp wire.GLUpdateResponse
	err = mon.CallTraced(wire.TypeGLUpdate, env.ReqID, s.rec.Node(), &wire.GLUpdateRequest{ServerID: id, Op: op, Entry: e}, &resp)
	if err != nil {
		return res, err
	}
	s.mu.Lock()
	s.store.put(resp.Entry, true)
	if resp.GLVersion == s.glVersion+1 {
		s.glVersion = resp.GLVersion
	}
	res.LeaseMS, res.IndexVer = s.leaseLocked()
	s.mu.Unlock()
	s.leases.Add(1)
	res.Entry = &resp.Entry
	return res, nil
}

func (s *Server) handleSetAttr(env *wire.Envelope, req *wire.SetAttrRequest) (*wire.SetAttrResponse, error) {
	s.setattrs.Add(1)
	s.hot.Add(req.Path, 1)
	s.mu.Lock()
	e, gl := s.store.get(req.Path)
	if e == nil {
		addr, ok := s.index.Owner(req.Path)
		s.mu.Unlock()
		if ok && addr != s.Addr() {
			s.redirects.Add(1)
			return &wire.SetAttrResponse{Redirect: addr}, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrNotFound, req.Path)
	}
	if !gl {
		// Local-layer update, journaled like the local create.
		e.Size = req.Size
		e.Mode = req.Mode
		e.Version++
		t := s.journalLocked("setattr", &walEntryRec{Entry: *e})
		cp := *e
		leaseMS, ver := s.leaseLocked()
		s.mu.Unlock()
		s.waitDurable(t)
		s.leases.Add(1)
		return &wire.SetAttrResponse{Entry: &cp, LeaseMS: leaseMS, IndexVer: ver}, nil
	}
	s.mu.Unlock()
	r, err := s.glUpdate(env, "setattr", wire.Entry{Path: req.Path, Size: req.Size, Mode: req.Mode})
	if err != nil {
		return nil, err
	}
	return &wire.SetAttrResponse{Entry: r.Entry, LeaseMS: r.LeaseMS, IndexVer: r.IndexVer}, nil
}

func (s *Server) handleReaddir(req *wire.ReaddirRequest) (*wire.ReaddirResponse, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dir, children, redirect, err := s.listLocked(req.Path)
	if err != nil {
		return nil, err
	}
	if redirect != "" {
		return &wire.ReaddirResponse{Redirect: redirect}, nil
	}
	names := make([]string, len(children))
	for i := range children {
		names[i] = children[i].Path[strings.LastIndexByte(children[i].Path, '/')+1:]
	}
	// Stamp the directory's own version and a lease so the client can at
	// least renew the parent entry it almost certainly holds cached.
	leaseMS, ver := s.leaseLocked()
	s.leases.Add(1)
	return &wire.ReaddirResponse{Names: names, DirVersion: dir.Version, LeaseMS: leaseMS, IndexVer: ver}, nil
}

// listLocked is the one listing body behind Readdir and ReaddirPlus: the
// directory's entry and its children sorted by path, or the owner to
// redirect to when this server does not hold the directory. A directory's
// children can span the GL/LL cut: subtree roots hosted on other servers are
// visible through the local index, so the listing is complete without
// contacting them. They appear as placeholders with Version 0: name and
// kind are authoritative, the body is not, and clients must not cache them.
// The cost is O(children + subtree roots directly under path): the index is
// keyed by the directory above the cut, so a listing never visits the roots
// under other directories. Callers hold s.mu (either side).
func (s *Server) listLocked(path string) (dir *wire.Entry, children []wire.Entry, redirect string, err error) {
	dir, _ = s.store.get(path)
	if dir == nil {
		if addr, ok := s.index.Owner(path); ok && addr != s.Addr() {
			s.redirects.Add(1)
			return nil, nil, addr, nil
		}
		return nil, nil, "", fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if dir.Kind != wire.EntryDir {
		return nil, nil, "", fmt.Errorf("server: %s is not a directory", path)
	}
	children = []wire.Entry{}
	s.store.children(path, func(e *wire.Entry) { children = append(children, *e) })
	for _, root := range s.index.ChildRoots(path) {
		if held, _ := s.store.get(root); held == nil {
			children = append(children, wire.Entry{Path: root, Kind: wire.EntryDir})
		}
	}
	sortByPath(children)
	return dir, children, "", nil
}

// handleRename renames a local-layer node and its whole subtree in place —
// a purely local operation, which is exactly the rename advantage of
// subtree-keyed partitioning: no metadata relocates between servers.
// Renaming a global-layer path or a subtree root changes the partition
// itself and is deferred to maintenance (Monitor re-evaluation).
func (s *Server) handleRename(req *wire.RenameRequest) (*wire.RenameResponse, error) {
	if !validPath(req.Path) {
		return nil, fmt.Errorf("server: invalid path %q", req.Path)
	}
	if req.NewName == "" || strings.ContainsRune(req.NewName, '/') {
		return nil, fmt.Errorf("server: invalid new name %q", req.NewName)
	}
	s.hot.Add(req.Path, 1)
	resp, t, err := s.renameAndJournal(req)
	s.waitDurable(t)
	return resp, err
}

// renameAndJournal commits the rename under s.mu and enqueues its journal
// record; the caller waits for durability after the lock is released.
func (s *Server) renameAndJournal(req *wire.RenameRequest) (*wire.RenameResponse, *wal.Ticket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, gl := s.store.get(req.Path)
	if gl {
		return nil, nil, fmt.Errorf("server: %s is in the global layer; rename requires re-evaluation", req.Path)
	}
	if s.subtrees[req.Path] {
		return nil, nil, fmt.Errorf("server: %s is a subtree root; rename requires re-evaluation", req.Path)
	}
	if e == nil {
		if addr, ok := s.index.Owner(req.Path); ok && addr != s.Addr() {
			s.redirects.Add(1)
			return &wire.RenameResponse{Redirect: addr}, nil, nil
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, req.Path)
	}
	slash := strings.LastIndexByte(req.Path, '/')
	newPath := req.Path[:slash+1] + req.NewName
	if newPath == req.Path {
		cp := *e
		leaseMS, ver := s.leaseLocked()
		s.leases.Add(1)
		return &wire.RenameResponse{Entry: &cp, LeaseMS: leaseMS, IndexVer: ver}, nil, nil
	}
	if held, _ := s.store.get(newPath); held != nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrExists, newPath)
	}
	// Rekey the node and every descendant — the same commit step WAL replay
	// re-runs, so journaling just the (path, newName) pair suffices.
	cp := *s.store.rename(req.Path, req.NewName)
	t := s.journalLocked("rename", &walRenameRec{Path: req.Path, NewName: req.NewName})
	leaseMS, ver := s.leaseLocked()
	s.leases.Add(1)
	return &wire.RenameResponse{Entry: &cp, LeaseMS: leaseMS, IndexVer: ver}, t, nil
}

func (s *Server) handleInstall(env *wire.Envelope, req *wire.InstallRequest) (*wire.LockResponse, error) {
	// The install is one stage of a migration: record it under the
	// TransferCommand's ReqID (carried on the envelope by the source MDS).
	s.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "install",
		ReqID:  env.ReqID,
		From:   env.Span,
		Path:   req.RootPath,
		Detail: strconv.Itoa(len(req.Entries)) + " entries",
	})
	s.mu.Lock()
	s.installLocked(req.RootPath, req.Entries)
	s.index.Set(req.RootPath, s.Addr())
	// Pin our claim until the Monitor's index confirms it, so a stale
	// refresh between the install and its commit cannot make us drop the
	// data we just received.
	s.overrides[req.RootPath] = &indexOverride{addr: s.Addr(), ttl: 50}
	tickets := s.journalInstallLocked(req.RootPath, req.Entries)
	s.mu.Unlock()
	// Ack only once the install is durable: the source deletes its copy on
	// this reply, so a receiver that crashes afterwards must be able to
	// replay the subtree.
	for _, t := range tickets {
		s.waitDurable(t)
	}
	return &wire.LockResponse{Granted: true}, nil
}

// handleUninstall drops a subtree the Monitor says this server should not
// hold: a recovery push that timed out at the Monitor but landed here anyway,
// after the subtree was re-homed elsewhere. Idempotent — an absent root acks
// cleanly. Clearing the index override is the load-bearing part: the override
// pins the stray claim until confirmation that, for a superseded push, never
// comes.
func (s *Server) handleUninstall(req *wire.UninstallRequest) (*wire.LockResponse, error) {
	s.mu.Lock()
	held := s.subtrees[req.RootPath]
	var t *wal.Ticket
	if held {
		s.dropSubtreeLocked(req.RootPath)
		t = s.journalLocked("remove", &walSubtreeRec{Root: req.RootPath})
	}
	delete(s.overrides, req.RootPath)
	s.mu.Unlock()
	s.waitDurable(t)
	if held {
		s.rec.Record(obs.Event{
			Kind:   obs.KindMigration,
			Op:     "uninstall",
			Path:   req.RootPath,
			Detail: "dropped superseded recovery copy",
		})
	}
	return &wire.LockResponse{Granted: true}, nil
}

func (s *Server) handleStats() (*wire.StatsResponse, error) {
	rtt := s.hbRTT.Summarize()
	var walAppends, walFlushes int64
	if s.journal != nil {
		walAppends, walFlushes = s.journal.Stats()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	roots := make([]string, 0, len(s.subtrees))
	for root := range s.subtrees {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	return &wire.StatsResponse{
		Server:     "mds-" + strconv.Itoa(s.id) + "@" + s.Addr(),
		Ops:        s.ops.Load(),
		Lookups:    s.lookups.Load(),
		Creates:    s.creates.Load(),
		SetAttrs:   s.setattrs.Load(),
		Redirects:  s.redirects.Load(),
		Entries:    s.store.len(),
		GLVersion:  s.glVersion,
		IndexSize:  s.index.Len(),
		SubtreeCnt: len(s.subtrees),
		MonRPC:     s.monMetrics.Snapshot(),
		HeartbeatRTT: wire.LatencySummary{
			Count:  rtt.Count,
			MeanUS: rtt.Mean.Microseconds(),
			P50US:  rtt.P50.Microseconds(),
			P90US:  rtt.P90.Microseconds(),
			P99US:  rtt.P99.Microseconds(),
			MaxUS:  rtt.Max.Microseconds(),
		},
		TransferOK:       s.transferOK.Load(),
		TransferFail:     s.transferFail.Load(),
		HeartbeatMisses:  s.hbMisses.Load(),
		LeasesGranted:    s.leases.Load(),
		RevalidateHits:   s.revalidateHits.Load(),
		RevalidateMisses: s.revalidateMisses.Load(),
		Batches:          s.batches.Load(),
		BatchSubOps:      s.batchSubOps.Load(),
		ReaddirPlus:      s.readdirplus.Load(),
		WalAppends:       walAppends,
		WalFlushes:       walFlushes,
		Snapshots:        s.snapshots.Load(),
		WalDegraded:      s.walDegraded.Load(),
		Subtrees:         roots,
		ServeIO:          wire.ServeIO.Snapshot(),
		ConnIO:           wire.ConnIO.Snapshot(),
		BadFrames:        wire.BadFrames.Load(),
	}, nil
}

func (s *Server) handleObsDump(req *wire.ObsDumpRequest) (*wire.ObsDumpResponse, error) {
	events, dropped := s.rec.Since(req.SinceSeq, 0)
	seq := req.SinceSeq
	if n := len(events); n > 0 {
		seq = events[n-1].Seq
	}
	return &wire.ObsDumpResponse{
		Node:    s.rec.Node(),
		Seq:     seq,
		Dropped: dropped,
		Events:  events,
		Ops:     s.opStats.Latencies(),
	}, nil
}
