package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"d2tree/internal/namespace"
	"d2tree/internal/obs"
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
		return serve(env, func(r wire.LookupRequest) (interface{}, string, error) {
			resp, err := s.handleLookup(&r)
			return resp, r.Path, err
		})
	case wire.TypeRevalidate:
		return serve(env, func(r wire.RevalidateRequest) (interface{}, string, error) {
			resp, err := s.handleRevalidate(&r)
			return resp, r.Path, err
		})
	case wire.TypeCreate:
		return serve(env, func(r wire.CreateRequest) (interface{}, string, error) {
			resp, err := s.handleCreate(env, &r)
			return resp, r.Path, err
		})
	case wire.TypeSetAttr:
		return serve(env, func(r wire.SetAttrRequest) (interface{}, string, error) {
			resp, err := s.handleSetAttr(env, &r)
			return resp, r.Path, err
		})
	case wire.TypeReaddir:
		return serve(env, func(r wire.ReaddirRequest) (interface{}, string, error) {
			resp, err := s.handleReaddir(&r)
			return resp, r.Path, err
		})
	case wire.TypeReaddirPlus:
		return serve(env, func(r wire.ReaddirPlusRequest) (interface{}, string, error) {
			resp, err := s.handleReaddirPlus(&r)
			return resp, r.Path, err
		})
	case wire.TypeCreateWithAttrs:
		return serve(env, func(r wire.CreateWithAttrsRequest) (interface{}, string, error) {
			resp, err := s.handleCreateWithAttrs(env, &r)
			return resp, r.Path, err
		})
	case wire.TypeBatch:
		return serve(env, func(r wire.BatchRequest) (interface{}, string, error) {
			path := ""
			if len(r.Ops) > 0 {
				path = r.Ops[0].Path // trace the frame under its first sub-op
			}
			resp, err := s.handleBatch(env, &r)
			return resp, path, err
		})
	case wire.TypeRename:
		return serve(env, func(r wire.RenameRequest) (interface{}, string, error) {
			resp, err := s.handleRename(&r)
			return resp, r.Path, err
		})
	case wire.TypeInstall:
		return serve(env, func(r wire.InstallRequest) (interface{}, string, error) {
			resp, err := s.handleInstall(env, &r)
			return resp, r.Tree.Path, err
		})
	case wire.TypeUninstall:
		return serve(env, func(r wire.UninstallRequest) (interface{}, string, error) {
			resp, err := s.handleUninstall(&r)
			return resp, r.RootPath, err
		})
	case wire.TypeStats:
		resp, err := s.handleStats()
		return resp, "", err
	case wire.TypeObsDump:
		return serve(env, func(r wire.ObsDumpRequest) (interface{}, string, error) {
			resp, err := s.handleObsDump(&r)
			return resp, "", err
		})
	default:
		return nil, "", fmt.Errorf("server: unknown message type %q", env.Type)
	}
}

// serve decodes an op's request in a frame of its own, so no request is held
// in dispatch's: there it would sit, with every other op's, on the fresh
// goroutine stack of every blocking op through the decode, and push that
// stack past its first segment. It is kept out of dispatch for that reason.
// h gets the request by value: a pointer handed to a function value would
// move the request to the heap.
//
//go:noinline
func serve[Req any](env *wire.Envelope, h func(Req) (interface{}, string, error)) (interface{}, string, error) {
	var req Req
	if err := env.Decode(&req); err != nil {
		return nil, "", err
	}
	return h(req)
}

// leaseLocked returns the cache lease to stamp on an entry-carrying
// response and the index version it is keyed to, and counts the grant.
// Callers hold s.mu (either side) and call it only when an entry or a match
// goes out: redirects and errors grant nothing.
func (s *Server) leaseLocked() (leaseMS, indexVer int64) {
	if s.cfg.EntryLease > 0 {
		leaseMS = s.cfg.EntryLease.Milliseconds()
	}
	s.leases.Add(1)
	return leaseMS, s.indexVer
}

// grantLocked is the result that ships e with the lease it grants.
func (s *Server) grantLocked(e *wire.Entry) wire.BatchResult {
	leaseMS, ver := s.leaseLocked()
	return wire.BatchResult{Entry: e, LeaseMS: leaseMS, IndexVer: ver}
}

// missLocked answers for a path the store does not hold: the owner to
// redirect to, or not-found when that is this server.
func (s *Server) missLocked(path string) (redirect string, err error) {
	if addr, ok := s.index.Owner(path); ok && addr != s.Addr() {
		s.redirects.Add(1)
		return addr, nil
	}
	return "", fmt.Errorf("%w: %s", ErrNotFound, path)
}

// entryResponse is a single-op answer built from its body's result.
func entryResponse(res wire.BatchResult, err error) (*wire.EntryResponse, error) {
	if err != nil {
		return nil, err
	}
	return &wire.EntryResponse{Entry: res.Entry, Redirect: res.Redirect, LeaseMS: res.LeaseMS, IndexVer: res.IndexVer}, nil
}

// The op bodies below are shared by the single-op handlers and the batch
// arms (compound.go): each runs under s.mu, returns the result a sub-op
// carries, and changes journaled state only through journal.Commit.

func (s *Server) handleLookup(req *wire.LookupRequest) (*wire.LookupResponse, error) {
	s.countAccess(req.Path)
	s.mu.RLock()
	res, err := s.lookupLocked(req.Path)
	s.mu.RUnlock()
	return entryResponse(res, err)
}

// lookupLocked is the one lookup body. Callers hold s.mu (either side).
func (s *Server) lookupLocked(path string) (res wire.BatchResult, err error) {
	s.lookups.Add(1)
	n := s.store.get(path)
	if n == nil {
		res.Redirect, err = s.missLocked(path)
		return res, err
	}
	e := n.Entry(path)
	return s.grantLocked(&e), nil
}

// handleRevalidate answers the client cache's coherence probe: a version
// match renews the lease without resending the body (the common case — one
// small frame each way), a mismatch ships the current entry, and ownership
// is re-checked exactly like a lookup so a migrated path redirects instead
// of false-confirming.
func (s *Server) handleRevalidate(req *wire.RevalidateRequest) (*wire.RevalidateResponse, error) {
	s.countAccess(req.Path)
	s.mu.RLock()
	res, err := s.revalidateLocked(req.Path, req.Version)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return &wire.RevalidateResponse{Match: res.Match, Entry: res.Entry, LeaseMS: res.LeaseMS, IndexVer: res.IndexVer, Redirect: res.Redirect}, nil
}

// revalidateLocked is the one revalidate body. Callers hold s.mu (either
// side).
func (s *Server) revalidateLocked(path string, version int64) (res wire.BatchResult, err error) {
	n := s.store.get(path)
	switch {
	case n == nil:
		res.Redirect, err = s.missLocked(path)
		return res, err
	case n.Version() == version:
		s.revalidateHits.Add(1)
		res = s.grantLocked(nil)
		res.Match = true
		return res, nil
	}
	s.revalidateMisses.Add(1)
	e := n.Entry(path)
	return s.grantLocked(&e), nil
}

func (s *Server) handleCreate(env *wire.Envelope, req *wire.CreateRequest) (*wire.CreateResponse, error) {
	return entryResponse(s.mutate(env, "create", wire.Entry{Path: req.Path, Kind: req.Kind}))
}

func (s *Server) handleSetAttr(env *wire.Envelope, req *wire.SetAttrRequest) (*wire.SetAttrResponse, error) {
	return entryResponse(s.mutate(env, "setattr", wire.Entry{Path: req.Path, Size: req.Size, Mode: req.Mode}))
}

// mutate serves one create or setattr (op) outside a batch frame; e carries
// the path and the requested kind and attributes. The body commits under
// s.mu and the answer waits, after unlocking, until the tail it noted is
// durable, so the fsync never extends the lock hold. A global-layer path
// goes to the Monitor instead, once the lock is released.
func (s *Server) mutate(env *wire.Envelope, op string, e wire.Entry) (wire.BatchResult, error) {
	s.countAccess(e.Path)
	s.mu.Lock()
	res, global, err := s.writeLocked(op, e)
	tail := s.journal.Tail()
	s.mu.Unlock()
	if global {
		return s.glUpdate(env, op, e)
	}
	s.journal.Wait(tail)
	return res, err
}

// validPath reports whether path names something below the root.
func validPath(path string) bool {
	return len(path) > 1 && path[0] == '/'
}

// countAccess counts one access to path toward the popularity the heartbeat
// reports. The counters have sharded locks of their own: never call it under
// s.mu.
func (s *Server) countAccess(path string) {
	if validPath(path) {
		s.hot.Add(path, 1)
	}
}

// writeLocked runs the create or setattr body. global reports, with nothing
// changed, that the path belongs to the global layer: the caller goes
// through glUpdate once the lock is released.
func (s *Server) writeLocked(op string, e wire.Entry) (res wire.BatchResult, global bool, err error) {
	if op == "create" {
		return s.createLocked(e)
	}
	return s.setattrLocked(e)
}

// createLocked is the one create body: validation, the exists check,
// ownership, and for a path this server owns the local-layer commit, which
// needs no cluster coordination. The entry carries a lease so the creator
// can serve its own create from cache (§8b).
func (s *Server) createLocked(e wire.Entry) (res wire.BatchResult, global bool, err error) {
	s.creates.Add(1)
	if err := s.checkCreateLocked(e.Path); err != nil {
		return res, false, err
	}
	if e.Kind != wire.EntryDir && e.Kind != wire.EntryFile {
		// Kind 0 is how a shipped subtree marks a path that holds no entry.
		return res, false, fmt.Errorf("server: invalid kind %d for %q", e.Kind, e.Path)
	}
	if s.store.get(e.Path) != nil {
		return res, false, fmt.Errorf("%w: %s", ErrExists, e.Path)
	}
	addr, ok := s.index.Owner(e.Path)
	if !ok {
		return res, true, nil
	}
	if addr != s.Addr() {
		s.redirects.Add(1)
		res.Redirect = addr
		return res, false, nil
	}
	e.Version = 1
	rec := &wire.CreateRecord{Entry: e}
	s.journal.Commit(rec)
	s.newPaths = append(s.newPaths, e)
	// The answer shares the record's copy of the entry: nothing writes
	// either once it is committed.
	return s.grantLocked(&rec.Entry), false, nil
}

// checkCreateLocked refuses a path no create may make: one not below the
// root, one with a name CheckName refuses (an empty one, between two
// slashes or after a trailing one), or one whose nearest entry held above it
// is a file's. Callers hold s.mu.
func (s *Server) checkCreateLocked(path string) error {
	if !validPath(path) {
		return fmt.Errorf("server: invalid path %q", path)
	}
	for rest, more := path[1:], true; more; {
		var name string
		name, rest, more = strings.Cut(rest, "/")
		if err := wire.CheckName(name); err != nil {
			return fmt.Errorf("server: invalid path %q: %w", path, err)
		}
	}
	var n *namespace.Node
	for p := namespace.ParentPath(path); n == nil && p != ""; p = namespace.ParentPath(p) {
		n = s.store.nodes[p]
	}
	for n != nil && n.Kind() == 0 {
		n = n.Parent()
	}
	if n != nil && n.Kind() == wire.EntryFile {
		return fmt.Errorf("server: %s: %w", path, namespace.ErrNotDir)
	}
	return nil
}

// setattrLocked is the one setattr body: a local-layer entry takes e's size
// and mode and its next version. global is as for createLocked.
func (s *Server) setattrLocked(e wire.Entry) (res wire.BatchResult, global bool, err error) {
	s.setattrs.Add(1)
	held := s.store.get(e.Path)
	switch {
	case held == nil:
		res.Redirect, err = s.missLocked(e.Path)
		return res, false, err
	case held.GL():
		return res, true, nil
	}
	rec := &wire.SetAttrRecord{Entry: held.Entry(e.Path)}
	rec.Entry.Size, rec.Entry.Mode = e.Size, e.Mode
	rec.Entry.Version++
	s.journal.Commit(rec)
	return s.grantLocked(&rec.Entry), false, nil
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
	res = s.grantLocked(&resp.Entry)
	s.mu.Unlock()
	return res, nil
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
	return &wire.ReaddirResponse{Names: names, DirVersion: dir.Version(), LeaseMS: leaseMS, IndexVer: ver}, nil
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
func (s *Server) listLocked(path string) (dir *namespace.Node, children []wire.Entry, redirect string, err error) {
	dir = s.store.get(path)
	if dir == nil {
		redirect, err = s.missLocked(path)
		return nil, nil, redirect, err
	}
	if !dir.IsDir() {
		return nil, nil, "", fmt.Errorf("server: %s is not a directory", path)
	}
	roots := s.index.ChildRoots(path)
	children = appendEntries(make([]wire.Entry, 0, dir.NumChildren()+len(roots)), dir, path)
	for _, root := range roots {
		if s.store.get(root) == nil {
			children = append(children, wire.Entry{Path: root, Kind: wire.EntryDir})
		}
	}
	sortByPath(children)
	return dir, children, "", nil
}

// appendEntries appends to out the entry of every child of dir, the node at
// path, that holds one, their paths all in one string.
func appendEntries(out []wire.Entry, dir *namespace.Node, path string) []wire.Entry {
	if path == "/" {
		path = ""
	}
	size := 0
	dir.EachChild(func(c *namespace.Node) bool {
		size += len(path) + 1 + len(c.Name())
		return true
	})
	var b strings.Builder
	b.Grow(size)
	dir.EachChild(func(c *namespace.Node) bool {
		if c.Kind() != 0 {
			start := b.Len()
			b.WriteString(path)
			b.WriteByte('/')
			b.WriteString(c.Name())
			out = append(out, c.Entry(b.String()[start:]))
		}
		return true
	})
	return out
}

// handleRename renames a local-layer node and its whole subtree in place —
// a purely local operation, which is exactly the rename advantage of
// subtree-keyed partitioning: no metadata relocates between servers.
// Renaming a global-layer path or a subtree root changes the partition
// itself and is deferred to maintenance (Monitor re-evaluation).
func (s *Server) handleRename(req *wire.RenameRequest) (*wire.RenameResponse, error) {
	s.countAccess(req.Path)
	s.mu.Lock()
	res, err := s.renameLocked(req.Path, req.NewName)
	tail := s.journal.Tail()
	s.mu.Unlock()
	s.journal.Wait(tail)
	return entryResponse(res, err)
}

// renameLocked is the one rename body. The record is just the (path,
// newName) pair: applying it rekeys the node and every descendant.
func (s *Server) renameLocked(path, newName string) (res wire.BatchResult, err error) {
	if !validPath(path) {
		return res, fmt.Errorf("server: invalid path %q", path)
	}
	if err := wire.CheckName(newName); err != nil {
		return res, fmt.Errorf("server: new name %q: %w", newName, err)
	}
	n := s.store.get(path)
	switch {
	case n == nil:
		res.Redirect, err = s.missLocked(path)
		return res, err
	case n.GL():
		return res, fmt.Errorf("server: %s is in the global layer; rename requires re-evaluation", path)
	case s.subtrees[path]:
		return res, fmt.Errorf("server: %s is a subtree root; rename requires re-evaluation", path)
	}
	newPath := path[:strings.LastIndexByte(path, '/')+1] + newName
	if newPath != path {
		if s.store.get(newPath) != nil {
			return res, fmt.Errorf("%w: %s", ErrExists, newPath)
		}
		s.journal.Commit(&wire.RenameRequest{Path: path, NewName: newName})
	}
	e := n.Entry(newPath)
	return s.grantLocked(&e), nil
}

func (s *Server) handleInstall(env *wire.Envelope, req *wire.InstallRequest) (*wire.LockResponse, error) {
	// The install is one stage of a migration: record it under the
	// TransferCommand's ReqID (carried on the envelope by the source MDS).
	root := req.Tree.Path
	s.rec.Record(obs.Event{
		Kind:   obs.KindMigration,
		Op:     "install",
		ReqID:  env.ReqID,
		From:   env.Span,
		Path:   root,
		Detail: strconv.Itoa(len(req.Tree.Nodes)) + " nodes",
	})
	s.mu.Lock()
	s.commitInstallLocked([]wire.Subtree{req.Tree})
	s.index.Set(root, s.Addr())
	// Pin our claim until the Monitor's index confirms it, so a stale
	// refresh between the install and its commit cannot make us drop the
	// data we just received.
	s.overrides[root] = &indexOverride{addr: s.Addr(), ttl: 50}
	tail := s.journal.Tail()
	s.mu.Unlock()
	// Ack only once the install is durable: the source deletes its copy on
	// this reply, so a receiver that crashes afterwards must be able to
	// replay the subtree.
	s.journal.Wait(tail)
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
	if held {
		s.journal.Commit(&wire.RemoveRecord{Root: req.RootPath})
	}
	delete(s.overrides, req.RootPath)
	tail := s.journal.Tail()
	s.mu.Unlock()
	s.journal.Wait(tail)
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
	walAppends, walFlushes, snapshots := s.journal.Stats()
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
		Snapshots:        snapshots,
		WalDegraded:      s.journal.Degraded(),
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
