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

// handleBatch executes the frame's sub-ops in order, each through the body
// its single-op handler runs. Atomicity is per sub-op: each result carries
// its own entry/lease, redirect, or error, and one failed sub-op never
// poisons the rest of the frame. Consecutive sub-ops owned by this server run
// under a single s.mu acquisition; a sub-op that must go through the Monitor
// (global-layer mutation) breaks the run and executes through batchGlobal
// outside the lock. The durability wait collapses to the end of the frame:
// one wait on the tail noted last, so N journaled sub-ops share one
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
		s.countAccess(req.Ops[i].Path)
	}

	results := make([]wire.BatchResult, len(req.Ops))
	var tail *wal.Ticket
	for i := 0; i < len(req.Ops); {
		s.mu.Lock()
		for i < len(req.Ops) && !s.subOpLocked(&req.Ops[i], &results[i]) {
			i++
		}
		tail = s.journal.Tail()
		s.mu.Unlock()
		if i < len(req.Ops) {
			s.batchGlobal(env, &req.Ops[i], &results[i])
			i++
		}
	}
	s.journal.Wait(tail)
	return &wire.BatchResponse{Results: results}, nil
}

// subOpLocked runs one sub-op's body into res. Caller holds s.mu for
// writing. global reports, with nothing changed, that the sub-op is a
// global-layer mutation: the caller releases the lock and runs it through
// batchGlobal.
func (s *Server) subOpLocked(op *wire.BatchOp, res *wire.BatchResult) (global bool) {
	var err error
	switch op.Op {
	case wire.BatchLookup:
		*res, err = s.lookupLocked(op.Path)
	case wire.BatchRevalidate:
		*res, err = s.revalidateLocked(op.Path, op.Version)
	case wire.BatchCreate, wire.BatchCreateAttrs, wire.BatchSetAttr:
		*res, global, err = s.writeLocked(batchWrite(op))
	default:
		err = fmt.Errorf("server: unknown batch op %q", op.Op)
	}
	if err != nil {
		res.Err = err.Error()
	}
	return global
}

// batchWrite is the create or setattr a write sub-op asks for; only
// create_attrs carries attributes on a create. A created entry's path is
// copied out of the decoded frame, which also carries every other sub-op and
// the client's hot paths and would otherwise stay in memory as long as the
// stored entry.
func batchWrite(op *wire.BatchOp) (string, wire.Entry) {
	if op.Op == wire.BatchSetAttr {
		return "setattr", wire.Entry{Path: op.Path, Size: op.Size, Mode: op.Mode}
	}
	e := wire.Entry{Path: strings.Clone(op.Path), Kind: op.Kind}
	if op.Op == wire.BatchCreateAttrs {
		e.Size, e.Mode = op.Size, op.Mode
	}
	return "create", e
}

// batchGlobal runs one global-layer sub-op through the Monitor, outside the
// store lock.
func (s *Server) batchGlobal(env *wire.Envelope, op *wire.BatchOp, res *wire.BatchResult) {
	glOp, e := batchWrite(op)
	var err error
	if *res, err = s.glUpdate(env, glOp, e); err != nil {
		res.Err = err.Error()
	}
}

// handleCreateWithAttrs fuses the create+setattr pair every real client
// issues into one committed mutation: one WAL record, one lease grant, one
// version. It is handleCreate with attributes, including the global-layer
// path through the Monitor (which preserves Size/Mode on its "create" op).
func (s *Server) handleCreateWithAttrs(env *wire.Envelope, req *wire.CreateWithAttrsRequest) (*wire.CreateWithAttrsResponse, error) {
	return entryResponse(s.mutate(env, "create", wire.Entry{Path: req.Path, Kind: req.Kind, Size: req.Size, Mode: req.Mode}))
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
	return &wire.ReaddirPlusResponse{
		Entries:    children,
		DirVersion: dir.Version(),
		LeaseMS:    leaseMS,
		IndexVer:   ver,
	}, nil
}
