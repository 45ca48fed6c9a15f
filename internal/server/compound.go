package server

import (
	"fmt"
	"strings"

	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// This file implements the compound serving path: TypeBatch frames carrying N
// independent sub-ops, TypeReaddirPlus listings that ship child entries with
// leases, and TypeCreateWithAttrs fusing the create+setattr pair. Compound
// frames amortise the per-RPC costs the single-op path pays N times — one
// envelope codec pass, one store-lock acquisition per owned run of sub-ops,
// and one group-commit durability wait for every WAL ticket in the frame.

// handleBatch executes the frame's sub-ops in order. Atomicity is per sub-op:
// each result carries its own entry/lease, redirect, or error, and one failed
// sub-op never poisons the rest of the frame. Consecutive sub-ops owned by
// this server run under a single s.mu acquisition; a sub-op that must go
// through the Monitor (global-layer mutation) breaks the run and executes
// through batchGlobal outside the lock. Durability
// waits collapse to the end of the frame: every local mutation's WAL ticket
// is collected and awaited once, so N journaled sub-ops share one
// group-commit flush window instead of paying N fsync waits.
func (s *Server) handleBatch(env *wire.Envelope, req *wire.BatchRequest) (*wire.BatchResponse, error) {
	s.batches.Add(1)
	s.batchSubOps.Add(int64(len(req.Ops)))
	// Client-coalesced popularity deltas: cache-hit serves the client absorbed
	// locally since its last frame, folded in so GL re-evaluation still sees
	// the true access distribution (§8b keeps served-from-cache paths warm).
	for p, n := range req.HotPaths {
		if n > 0 && len(p) > 0 && p[0] == '/' {
			s.hot.Add(p, n)
		}
	}
	// Count every sub-op's access before taking s.mu — s.hot has its own
	// sharded locks and must never nest inside the store lock.
	for i := range req.Ops {
		if p := req.Ops[i].Path; p != "" {
			s.hot.Add(p, 1)
		}
	}

	results := make([]wire.BatchResult, len(req.Ops))
	var tickets []*wal.Ticket
	i := 0
	for i < len(req.Ops) {
		s.mu.Lock()
		for i < len(req.Ops) {
			t, global := s.batchLocalLocked(&req.Ops[i], &results[i])
			if global {
				break
			}
			if t != nil {
				tickets = append(tickets, t)
			}
			i++
		}
		s.mu.Unlock()
		if i < len(req.Ops) {
			s.batchGlobal(env, &req.Ops[i], &results[i])
			i++
		}
	}
	for _, t := range tickets {
		s.waitDurable(t)
	}
	return &wire.BatchResponse{Results: results}, nil
}

// batchLocalLocked executes one sub-op against local state, mirroring the
// single-op handlers' semantics exactly (same counters, same lease stamps,
// same redirect and error shapes). Caller holds s.mu for writing; the
// returned WAL ticket, if any, must be awaited after the lock is released.
// global reports, with nothing changed, that the sub-op is a global-layer
// mutation: the caller releases the lock and runs it through batchGlobal.
func (s *Server) batchLocalLocked(op *wire.BatchOp, res *wire.BatchResult) (t *wal.Ticket, global bool) {
	switch op.Op {
	case wire.BatchLookup:
		s.lookups.Add(1)
		if e, _ := s.store.get(op.Path); e != nil {
			cp := *e
			res.Entry = &cp
			res.LeaseMS, res.IndexVer = s.leaseLocked()
			s.leases.Add(1)
			return nil, false
		}
		s.batchMissLocked(op.Path, res)

	case wire.BatchRevalidate:
		if e, _ := s.store.get(op.Path); e != nil {
			res.LeaseMS, res.IndexVer = s.leaseLocked()
			s.leases.Add(1)
			if e.Version == op.Version {
				s.revalidateHits.Add(1)
				res.Match = true
				return nil, false
			}
			s.revalidateMisses.Add(1)
			cp := *e
			res.Entry = &cp
			return nil, false
		}
		s.batchMissLocked(op.Path, res)

	case wire.BatchCreate, wire.BatchCreateAttrs:
		var err error
		if *res, t, global, err = s.createLocked(batchCreateEntry(op)); err != nil {
			res.Err = err.Error()
		}
		return t, global

	case wire.BatchSetAttr:
		e, gl := s.store.get(op.Path)
		if gl {
			return nil, true
		}
		s.setattrs.Add(1)
		if e == nil {
			s.batchMissLocked(op.Path, res)
			return nil, false
		}
		e.Size = op.Size
		e.Mode = op.Mode
		e.Version++
		t = s.journalLocked("setattr", &walEntryRec{Entry: *e})
		cp := *e
		res.Entry = &cp
		res.LeaseMS, res.IndexVer = s.leaseLocked()
		s.leases.Add(1)

	default:
		res.Err = fmt.Sprintf("server: unknown batch op %q", op.Op)
	}
	return t, false
}

// batchMissLocked fills the result for a sub-op whose path the store does
// not hold: the owner to redirect to, or not-found when that is this server.
func (s *Server) batchMissLocked(path string, res *wire.BatchResult) {
	if addr, ok := s.index.Owner(path); ok && addr != s.Addr() {
		s.redirects.Add(1)
		res.Redirect = addr
		return
	}
	res.Err = fmt.Sprintf("%v: %s", ErrNotFound, path)
}

// batchCreateEntry is the entry a create sub-op asks for; only create_attrs
// carries attributes. The store keeps the path, so it is copied out of the
// decoded frame, which also carries every other sub-op and the client's hot
// paths and would otherwise stay in memory as long as the entry.
func batchCreateEntry(op *wire.BatchOp) wire.Entry {
	e := wire.Entry{Path: strings.Clone(op.Path), Kind: op.Kind}
	if op.Op == wire.BatchCreateAttrs {
		e.Size, e.Mode = op.Size, op.Mode
	}
	return e
}

// batchGlobal runs one global-layer sub-op through the Monitor, outside the
// store lock.
func (s *Server) batchGlobal(env *wire.Envelope, op *wire.BatchOp, res *wire.BatchResult) {
	var err error
	if op.Op == wire.BatchSetAttr {
		s.setattrs.Add(1)
		*res, err = s.glUpdate(env, "setattr", wire.Entry{Path: op.Path, Size: op.Size, Mode: op.Mode})
	} else {
		*res, err = s.glUpdate(env, "create", batchCreateEntry(op))
	}
	if err != nil {
		res.Err = err.Error()
	}
}

// handleCreateWithAttrs fuses the create+setattr pair every real client
// issues into one committed mutation: one WAL record, one lease grant, one
// version. It is handleCreate with attributes, including the global-layer
// path through the Monitor (which preserves Size/Mode on its "create" op).
func (s *Server) handleCreateWithAttrs(env *wire.Envelope, req *wire.CreateWithAttrsRequest) (*wire.CreateWithAttrsResponse, error) {
	r, err := s.create(env, wire.Entry{Path: req.Path, Kind: req.Kind, Size: req.Size, Mode: req.Mode})
	if err != nil {
		return nil, err
	}
	return &wire.CreateWithAttrsResponse{Entry: r.Entry, Redirect: r.Redirect, LeaseMS: r.LeaseMS, IndexVer: r.IndexVer}, nil
}

// handleReaddirPlus lists a directory's children as full entries so one RPC
// replaces the readdir + N lookups an `ls -l` costs today. Children hosted on
// other servers come back as the Version-0 placeholders listLocked describes.
func (s *Server) handleReaddirPlus(req *wire.ReaddirPlusRequest) (*wire.ReaddirPlusResponse, error) {
	s.readdirplus.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	dir, children, redirect, err := s.listLocked(req.Path)
	if err != nil {
		return nil, err
	}
	if redirect != "" {
		return &wire.ReaddirPlusResponse{Redirect: redirect}, nil
	}
	leaseMS, ver := s.leaseLocked()
	s.leases.Add(1)
	return &wire.ReaddirPlusResponse{
		Entries:    children,
		DirVersion: dir.Version,
		LeaseMS:    leaseMS,
		IndexVer:   ver,
	}, nil
}
