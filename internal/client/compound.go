// Compound operations: Batch (N sub-ops per frame, redirect-aware splitting,
// coalesced popularity deltas), ReaddirPlus (child entries + leases in one
// RPC), and CreateWithAttrs (fused create+setattr).
package client

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"d2tree/internal/wire"
)

// Batch executes N independent sub-ops in as few frames as routing allows:
// sub-ops are grouped per owning MDS (longest indexed prefix, like any single
// op), each group ships as one TypeBatch frame, and sub-results that come
// back as redirects are re-grouped and re-sent until they settle or the
// redirect budget runs out. Accumulated cache-hit popularity deltas fold into
// the first frame. The returned slice is parallel to ops; per-sub-op failures
// land in BatchResult.Err — the error return is reserved for inputs the
// client rejects outright.
//
// Atomicity is per sub-op (the server journals each mutation separately and
// group-commits the frame); a batch is NOT a transaction.
func (c *Client) Batch(ops []wire.BatchOp) ([]wire.BatchResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	for i := range ops {
		if ops[i].Path == "" || ops[i].Path[0] != '/' {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, ops[i].Path)
		}
	}
	reqID := c.ids.Next()
	start := time.Now()
	var epoch uint64
	if c.entries != nil {
		// Mirror SetAttr's discipline: drop stale copies of mutated paths
		// before the wire call, then note the epoch so committed entries never
		// land over a newer invalidation that raced the frame.
		for i := range ops {
			if ops[i].Op == wire.BatchSetAttr {
				c.entries.Invalidate(ops[i].Path)
			}
		}
		epoch = c.entries.Epoch()
	}
	// Cache-hit serves the cluster never saw, per path: claimed from the
	// cache here, shipped on the first frame that lands, put back if none does.
	var deltas map[string]int64
	if c.entries != nil {
		deltas = c.entries.TakeServed()
	}
	deltasSent := false

	results := make([]wire.BatchResult, len(ops))
	pending := make([]int, len(ops))
	for i := range pending {
		pending[i] = i
	}
	var dead map[string]bool
	var lastDialErr error
	hops, dials := 0, 0
	for len(pending) > 0 {
		// Group the pending sub-ops by owning server, preserving first-seen
		// order so the frame a server receives keeps the caller's sub-op order.
		type group struct {
			addr string
			idxs []int
		}
		var groups []group
		pos := make(map[string]int)
		for _, i := range pending {
			addr, rerr := c.route(ops[i].Path, dead)
			if rerr != nil {
				if errors.Is(rerr, errNoCandidates) && lastDialErr != nil {
					rerr = lastDialErr
				}
				results[i] = wire.BatchResult{Err: rerr.Error()}
				continue
			}
			if g, ok := pos[addr]; ok {
				groups[g].idxs = append(groups[g].idxs, i)
			} else {
				pos[addr] = len(groups)
				groups = append(groups, group{addr: addr, idxs: []int{i}})
			}
		}
		pending = pending[:0]
		redirected := false
		for _, g := range groups {
			sub := make([]wire.BatchOp, len(g.idxs))
			for k, i := range g.idxs {
				sub[k] = ops[i]
			}
			req := &wire.BatchRequest{Ops: sub}
			if !deltasSent && len(deltas) > 0 {
				req.HotPaths = deltas
			}
			conn, cerr := c.conn(g.addr)
			if cerr != nil {
				if dead == nil {
					dead = make(map[string]bool)
				}
				dead[g.addr] = true
				lastDialErr = cerr
				if dials++; dials > maxDialFailures {
					for _, i := range g.idxs {
						results[i] = wire.BatchResult{Err: cerr.Error()}
					}
					continue
				}
				_ = c.refreshClusterInfo()
				pending = append(pending, g.idxs...)
				continue
			}
			var resp wire.BatchResponse
			callErr := conn.CallTraced(wire.TypeBatch, reqID, c.cfg.Name, req, &resp)
			if callErr != nil {
				if wire.IsRemote(callErr) {
					// The server processed and rejected the frame; another
					// server would answer the same.
					for _, i := range g.idxs {
						results[i] = wire.BatchResult{Err: callErr.Error()}
					}
					continue
				}
				c.dropConn(g.addr, conn)
				if hops++; hops > c.cfg.MaxRedirects {
					for _, i := range g.idxs {
						results[i] = wire.BatchResult{Err: callErr.Error()}
					}
					continue
				}
				_ = c.refreshClusterInfo()
				pending = append(pending, g.idxs...)
				continue
			}
			if req.HotPaths != nil {
				deltasSent = true
			}
			if len(resp.Results) != len(g.idxs) {
				for _, i := range g.idxs {
					results[i] = wire.BatchResult{Err: "client: batch result count mismatch"}
				}
				continue
			}
			for k, i := range g.idxs {
				results[i] = resp.Results[k]
				if resp.Results[k].Redirect != "" {
					redirected = true
					pending = append(pending, i)
				}
			}
		}
		if redirected {
			c.mu.Lock()
			c.cacheMisses++
			c.mu.Unlock()
			if hops++; hops > c.cfg.MaxRedirects {
				for _, i := range pending {
					if results[i].Redirect != "" {
						results[i] = wire.BatchResult{Err: fmt.Sprintf("%v: %s %s", ErrTooManyHops, wire.TypeBatch, ops[i].Path)}
					}
				}
				break
			}
			_ = c.refreshClusterInfo()
		}
	}
	if !deltasSent && len(deltas) > 0 {
		c.entries.RestoreServed(deltas)
	}

	// Reconcile the entry cache with every settled sub-result, under the same
	// guards as the single-op paths.
	if c.entries != nil {
		for i := range results {
			res := &results[i]
			op := &ops[i]
			switch {
			case res.Entry != nil:
				c.cachePut(op.Path, res.Entry, res.IndexVer, res.LeaseMS, epoch)
			case res.Match:
				c.entries.RenewFor(op.Path, op.Version, c.leaseOf(res.LeaseMS))
			case res.Err != "" || res.Redirect != "":
				// A mutation that did not settle leaves the cached copy in
				// doubt; drop it rather than serve a maybe-stale body.
				if op.Op == wire.BatchCreate || op.Op == wire.BatchCreateAttrs || op.Op == wire.BatchSetAttr {
					c.entries.Invalidate(op.Path)
				}
			}
		}
	}
	c.record(wire.TypeBatch, reqID, ops[0].Path, fmt.Sprintf("%d ops", len(ops)), start, nil)
	return results, nil
}

// CreateWithAttrs makes a file or directory with its attributes in one
// committed mutation — the create+setattr pair fused into a single RPC, WAL
// record, and version. The committed entry is cached under its granted lease
// like Create's.
func (c *Client) CreateWithAttrs(path string, kind wire.EntryKind, size int64, mode uint32) (*wire.Entry, error) {
	reqID := c.ids.Next()
	start := time.Now()
	var epoch uint64
	if c.entries != nil {
		epoch = c.entries.Epoch()
	}
	var entry *wire.Entry
	var leaseMS, grantVer int64
	err := c.call(path, wire.TypeCreateWithAttrs, func(conn *wire.Conn) (string, error) {
		var resp wire.CreateWithAttrsResponse
		req := &wire.CreateWithAttrsRequest{Path: path, Kind: kind, Size: size, Mode: mode}
		if err := conn.CallTraced(wire.TypeCreateWithAttrs, reqID, c.cfg.Name, req, &resp); err != nil {
			return "", err
		}
		entry = resp.Entry
		leaseMS, grantVer = resp.LeaseMS, resp.IndexVer
		return resp.Redirect, nil
	})
	c.record(wire.TypeCreateWithAttrs, reqID, path, "", start, err)
	if err != nil {
		return nil, err
	}
	c.cachePut(path, entry, grantVer, leaseMS, epoch)
	return entry, nil
}

// ReaddirPlus lists a directory as full child entries and populates the
// entry cache with each one under its granted lease — one RPC where readdir
// plus per-child lookups costs 1+N. Children hosted on other servers appear
// as placeholders (Version 0): their name and kind are authoritative but the
// body is not, so they are returned to the caller and kept out of the cache.
func (c *Client) ReaddirPlus(path string) ([]wire.Entry, error) {
	reqID := c.ids.Next()
	start := time.Now()
	var epoch uint64
	if c.entries != nil {
		epoch = c.entries.Epoch()
	}
	var resp wire.ReaddirPlusResponse
	err := c.call(path, wire.TypeReaddirPlus, func(conn *wire.Conn) (string, error) {
		resp = wire.ReaddirPlusResponse{}
		if err := conn.CallTraced(wire.TypeReaddirPlus, reqID, c.cfg.Name, &wire.ReaddirPlusRequest{Path: path}, &resp); err != nil {
			return "", err
		}
		return resp.Redirect, nil
	})
	c.record(wire.TypeReaddirPlus, reqID, path, "", start, err)
	if err != nil {
		return nil, err
	}
	entries := c.mergeChildRoots(path, resp.Entries)
	if c.entries != nil {
		lease := c.leaseOf(resp.LeaseMS)
		for i := range entries {
			e := &entries[i]
			if e.Version <= 0 {
				continue // placeholder: body not authoritative, do not cache
			}
			c.cachePut(e.Path, e, resp.IndexVer, resp.LeaseMS, epoch)
		}
		if resp.DirVersion > 0 {
			// Renew the parent directory's own cached entry — the listing
			// proves it is current at DirVersion.
			c.entries.RenewFor(path, resp.DirVersion, lease)
		}
	}
	return entries, nil
}

// mergeChildRoots completes a server's listing of dir with the subtree roots
// the client's cached index holds directly under it, as Version-0
// placeholders, so children hosted elsewhere appear even while the serving
// MDS's index is still catching up. The listing arrives sorted by path and
// so do the child roots: each root the listing lacks is inserted in place,
// and a directory with no child roots (the usual case) costs one map probe.
func (c *Client) mergeChildRoots(dir string, entries []wire.Entry) []wire.Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, root := range c.index.ChildRoots(dir) {
		at, found := slices.BinarySearchFunc(entries, root, func(e wire.Entry, p string) int {
			return strings.Compare(e.Path, p)
		})
		if !found {
			entries = slices.Insert(entries, at, wire.Entry{Path: root, Kind: wire.EntryDir})
		}
	}
	return entries
}
