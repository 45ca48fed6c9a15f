// Package client is the D2-Tree client library: it bootstraps membership
// and the local index from the Monitor, caches the index to route queries
// directly (Sec. IV-A2 — prefix check against cached inter-node index,
// otherwise any random MDS, since the global layer is replicated
// everywhere), and refreshes the cache when a server redirects it.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"d2tree/internal/cache"
	"d2tree/internal/obs"
	"d2tree/internal/rootindex"
	"d2tree/internal/wire"
)

// Config parameterises a client.
type Config struct {
	// MonitorAddr is the Monitor's address.
	MonitorAddr string
	// DialTimeout defaults to 2s.
	DialTimeout time.Duration
	// CallTimeout bounds each RPC attempt (default 2s); a timed-out call
	// poisons its connection and the client redials.
	CallTimeout time.Duration
	// MaxRedirects bounds redirect-chasing per operation (default 4).
	MaxRedirects int
	// Seed drives random GL server selection (0 = time-based).
	Seed int64
	// CacheEntries enables the Sec. IV-A2 client entry cache when > 0:
	// lookups within the lease of a previous fetch are served locally, and
	// expired entries are revalidated with a body-less version check.
	// Staleness is bounded by the lease, exactly as in the paper's
	// version/timeout/lease design.
	CacheEntries int
	// CacheLease is the fallback entry lease used when the server grants
	// none on a response (default 2s when the cache is enabled); normally
	// the MDS chooses the lease and stamps it on each entry it returns.
	CacheLease time.Duration
	// Name identifies this client in trace spans and event logs (default
	// "client"; the load generator names its workers "client-<n>").
	Name string
	// Transport, when non-nil, is a shared MDS connection pool: co-located
	// clients coalesce onto one multiplexed connection per server instead of
	// dialling private sockets. The client never closes a shared Transport;
	// its owner does. Nil gives the client a private pool, closed by Close.
	Transport *Transport
}

func (c *Config) applyDefaults() {
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.MaxRedirects == 0 {
		c.MaxRedirects = 4
	}
	if c.CacheEntries > 0 && c.CacheLease == 0 {
		c.CacheLease = 2 * time.Second
	}
	if c.Name == "" {
		c.Name = "client"
	}
}

// Errors reported by the client.
var (
	ErrNoServers    = errors.New("client: cluster has no servers")
	ErrTooManyHops  = errors.New("client: redirect limit exceeded")
	ErrBadPath      = errors.New("client: path must be absolute")
	ErrNotConnected = errors.New("client: not connected")
)

// Client talks to a D2-Tree cluster. Safe for concurrent use. Construct
// with Connect, release with Close.
type Client struct {
	cfg Config
	rng *rand.Rand
	ids *obs.IDGen    // request-identifier mint, one ID per op that goes to the wire
	rec *obs.Recorder // events of the ops that left the process

	tr    *Transport // MDS connection pool (shared or private)
	ownTr bool       // Close tears tr down only when the pool is private

	mu       sync.Mutex
	servers  []string
	index    *rootindex.Index // subtree root path → MDS addr, by inter node
	indexVer int64
	mon      *wire.RetryingConn // self-healing: survives Monitor restarts
	entries  *cache.Cache       // nil when disabled
	closed   bool

	// CacheMisses counts redirects observed (stale index), for tests.
	cacheMisses int64
}

// Connect bootstraps a client from the Monitor.
func Connect(cfg Config) (*Client, error) {
	cfg.applyDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		ids:   obs.NewIDGen("r", seed),
		rec:   obs.NewRecorder(cfg.Name, 0),
		index: rootindex.New(nil),
		tr:    cfg.Transport,
	}
	if c.tr == nil {
		c.tr = NewTransport(cfg.DialTimeout, cfg.CallTimeout)
		c.ownTr = true
	}
	if cfg.CacheEntries > 0 {
		entries, err := cache.New(cfg.CacheEntries, cfg.CacheLease)
		if err != nil {
			return nil, err
		}
		c.entries = entries
	}
	mon := wire.NewRetryingConn(cfg.MonitorAddr, wire.RetryOptions{
		DialTimeout: cfg.DialTimeout,
		CallTimeout: cfg.CallTimeout,
		Seed:        seed,
	})
	c.mon = mon
	if err := c.refreshClusterInfo(); err != nil {
		_ = mon.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the client's connections. A shared Transport is left
// untouched (other clients are still using it); a private pool is closed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.ownTr {
		_ = c.tr.Close()
	}
	if c.mon != nil {
		_ = c.mon.Close()
	}
	return nil
}

// CacheMisses returns the number of stale-index redirects observed.
func (c *Client) CacheMisses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cacheMisses
}

// refreshClusterInfo re-fetches membership and the index from the Monitor.
// When the index version advanced, cache entries leased under older index
// versions are dropped: a migration commit or GL re-evaluation may have
// moved the paths they name.
func (c *Client) refreshClusterInfo() error {
	c.mu.Lock()
	mon := c.mon
	c.mu.Unlock()
	if mon == nil {
		return ErrNotConnected
	}
	var info wire.ClusterInfoResponse
	if err := mon.Call(wire.TypeClusterInfo, nil, &info); err != nil {
		return fmt.Errorf("client: cluster info: %w", err)
	}
	c.mu.Lock()
	advanced := info.IndexVer > c.indexVer
	c.servers = info.Servers
	c.indexVer = info.IndexVer
	c.index = rootindex.New(info.Index)
	c.mu.Unlock()
	if advanced && c.entries != nil {
		c.entries.InvalidateOlderGen(info.IndexVer)
	}
	return nil
}

// errNoCandidates reports that routing excluded every server (all known
// addresses failed to dial during this operation). The caller surfaces the
// underlying dial error instead.
var errNoCandidates = errors.New("client: no dialable server")

// route picks the MDS address for a path: longest indexed prefix, else a
// random server (global layer). Addresses in skip — this operation's failed
// dials — are not candidates; when nothing else remains, errNoCandidates is
// returned.
func (c *Client) route(path string, skip map[string]bool) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.servers) == 0 {
		return "", ErrNoServers
	}
	if a, ok := c.index.Owner(path); ok {
		if skip[a] {
			// The subtree's one owner is unreachable; no other server can
			// serve the path.
			return "", errNoCandidates
		}
		return a, nil
	}
	if len(skip) == 0 {
		return c.servers[c.rng.Intn(len(c.servers))], nil
	}
	candidates := make([]string, 0, len(c.servers))
	for _, s := range c.servers {
		if !skip[s] {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return "", errNoCandidates
	}
	return candidates[c.rng.Intn(len(candidates))], nil
}

// conn returns a pooled connection to addr.
func (c *Client) conn(addr string) (*wire.Conn, error) {
	return c.tr.conn(addr)
}

// dropConn discards a broken pooled connection. The conn is passed so a
// shared pool only evicts the connection this client actually failed on —
// not a fresh one another client already dialled in its place.
func (c *Client) dropConn(addr string, conn *wire.Conn) {
	c.tr.drop(addr, conn)
}

// maxDialFailures is a safety valve bounding dial attempts per operation:
// re-routing never retries an address that already failed, so the loop
// terminates on its own unless membership keeps churning in fresh addresses
// that are also dead.
const maxDialFailures = 32

// call performs one routed request, following redirects and refreshing the
// cache when the route was stale. attempt runs the RPC against one server
// with a fresh response value and reports any redirect address.
//
// Only redirects (and transport failures mid-call) are charged against
// MaxRedirects. A dial failure is not a hop: the dead address is excluded
// from re-routing, and when no reachable candidate remains the dial error
// itself surfaces — not a misleading ErrTooManyHops.
func (c *Client) call(path, msgType string,
	attempt func(conn *wire.Conn) (redirect string, err error)) error {
	if path == "" || path[0] != '/' {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	addr, err := c.route(path, nil)
	if err != nil {
		return err
	}
	var dead map[string]bool // addresses that failed to dial this operation
	hops, dials := 0, 0
	for {
		conn, cerr := c.conn(addr)
		if cerr != nil {
			// Server may be down: refresh membership and route around it.
			if dead == nil {
				dead = make(map[string]bool)
			}
			dead[addr] = true
			if dials++; dials > maxDialFailures {
				return cerr
			}
			if rerr := c.refreshClusterInfo(); rerr != nil {
				return cerr
			}
			next, rerr := c.route(path, dead)
			if rerr != nil {
				return cerr
			}
			addr = next
			continue
		}
		redirect, err := attempt(conn)
		if err != nil {
			if wire.IsRemote(err) {
				// The server processed and rejected the request; retrying
				// against another server would not change the answer.
				return err
			}
			c.dropConn(addr, conn)
			if hops++; hops > c.cfg.MaxRedirects {
				return err
			}
			if rerr := c.refreshClusterInfo(); rerr != nil {
				return err
			}
			next, rerr := c.route(path, dead)
			if rerr != nil {
				return err
			}
			addr = next
			continue
		}
		if redirect == "" {
			return nil
		}
		c.mu.Lock()
		c.cacheMisses++
		c.mu.Unlock()
		if hops++; hops > c.cfg.MaxRedirects {
			return fmt.Errorf("%w: %s %s", ErrTooManyHops, msgType, path)
		}
		_ = c.refreshClusterInfo()
		addr = redirect
	}
}

// record logs one client-side op event under the request's identifier.
func (c *Client) record(op, reqID, path, detail string, start time.Time, err error) {
	end := time.Now()
	c.rec.RecordAt(end, obs.Event{
		Kind:   obs.KindOp,
		Op:     op,
		ReqID:  reqID,
		Path:   path,
		Detail: detail,
		DurUS:  end.Sub(start).Microseconds(),
		Err:    obs.ErrString(err),
	})
}

// leaseOf converts a server-granted lease (milliseconds on the response) to
// a duration, falling back to the configured CacheLease when the server
// granted none.
func (c *Client) leaseOf(ms int64) time.Duration {
	if ms <= 0 {
		return c.cfg.CacheLease
	}
	return time.Duration(ms) * time.Millisecond
}

// Lookup resolves a path to its metadata entry. With the entry cache
// enabled, a lease-live cached copy is returned without touching the
// cluster; an expired copy is revalidated with a body-less version check
// (the body is resent only when the version moved); staleness is bounded by
// the server-granted lease.
//
// A live hit never leaves the process, so it pays for nothing that exists
// to follow an op across processes: no request identifier, no event in the
// ring, one clock read (the lease check). It is counted — in CacheCounters
// and, per path, in the cache's serve counts that the next Batch ships. A
// call that does go to the wire mints a request identifier that rides the
// envelope to the serving MDS (and any hop it forwards to), so the whole
// operation shares one trace.
func (c *Client) Lookup(path string) (*wire.Entry, error) {
	var expired *wire.Entry
	if c.entries != nil {
		if cached, live, ok := c.entries.Peek(path); ok {
			if e, isEntry := cached.Value.(*wire.Entry); isEntry {
				if live {
					cp := *e
					return &cp, nil
				}
				expired = e
			}
		}
	}
	reqID := c.ids.Next()
	start := time.Now()
	if expired != nil {
		if entry, done, err := c.revalidate(path, reqID, start, expired); done {
			return entry, err
		}
	}
	var entry *wire.Entry
	var leaseMS, grantVer int64
	var epoch uint64
	if c.entries != nil {
		epoch = c.entries.Epoch()
	}
	err := c.call(path, wire.TypeLookup, func(conn *wire.Conn) (string, error) {
		var resp wire.LookupResponse
		if err := conn.CallTraced(wire.TypeLookup, reqID, c.cfg.Name, &wire.LookupRequest{Path: path}, &resp); err != nil {
			return "", err
		}
		entry = resp.Entry
		leaseMS, grantVer = resp.LeaseMS, resp.IndexVer
		return resp.Redirect, nil
	})
	c.record(wire.TypeLookup, reqID, path, "", start, err)
	if err != nil {
		if c.entries != nil && wire.IsRemote(err) {
			// The origin rejected the path (gone, renamed away): drop any
			// expired body still resident for revalidation.
			c.entries.Invalidate(path)
		}
		return nil, err
	}
	c.cachePut(path, entry, grantVer, leaseMS, epoch)
	return entry, nil
}

// cachePut stores a private copy of a served entry (if the response carried
// one) under its granted lease. The cache holds a pointer, so the caller's
// copy and the cached one must not alias: callers own what the client
// returns and may write to it.
func (c *Client) cachePut(path string, e *wire.Entry, grantVer, leaseMS int64, epoch uint64) {
	if c.entries == nil || e == nil {
		return
	}
	cp := *e
	c.entries.PutLeased(path,
		cache.Entry{Value: &cp, Version: cp.Version, Gen: grantVer},
		c.leaseOf(leaseMS), epoch)
}

// revalidate settles an expired cached entry with one body-less version
// check against the owning MDS. done reports whether the lookup was fully
// answered here (served, refreshed, or rejected by the origin); done=false
// sends the caller down the regular full-fetch path (transport trouble, or
// the cached entry changed under us mid-flight).
func (c *Client) revalidate(path, reqID string, start time.Time, cached *wire.Entry) (*wire.Entry, bool, error) {
	epoch := c.entries.Epoch()
	var resp wire.RevalidateResponse
	err := c.call(path, wire.TypeRevalidate, func(conn *wire.Conn) (string, error) {
		resp = wire.RevalidateResponse{}
		req := &wire.RevalidateRequest{Path: path, Version: cached.Version}
		if err := conn.CallTraced(wire.TypeRevalidate, reqID, c.cfg.Name, req, &resp); err != nil {
			return "", err
		}
		return resp.Redirect, nil
	})
	if err != nil {
		if wire.IsRemote(err) {
			c.entries.Invalidate(path)
			c.record(wire.TypeRevalidate, reqID, path, "", start, err)
			return nil, true, err
		}
		return nil, false, nil
	}
	if resp.Match {
		if c.entries.RenewFor(path, cached.Version, c.leaseOf(resp.LeaseMS)) {
			// Not a serve in the cache's count: the revalidate probe itself
			// counted this access on the serving MDS.
			cp := *cached
			c.record(wire.TypeRevalidate, reqID, path, "renewed", start, nil)
			return &cp, true, nil
		}
		// Invalidated between the probe and the renewal (a rename or update
		// raced us): the peeked body may be dead — refetch it.
		return nil, false, nil
	}
	if resp.Entry == nil {
		return nil, false, nil
	}
	c.cachePut(path, resp.Entry, resp.IndexVer, resp.LeaseMS, epoch)
	cp := *resp.Entry
	c.record(wire.TypeRevalidate, reqID, path, "refreshed", start, nil)
	return &cp, true, nil
}

// Create makes a file or directory. The committed entry is cached under
// its server-granted lease, so the creator's own follow-up lookup is served
// locally instead of refetching what it just wrote.
func (c *Client) Create(path string, kind wire.EntryKind) (*wire.Entry, error) {
	reqID := c.ids.Next()
	start := time.Now()
	var epoch uint64
	if c.entries != nil {
		// Note the epoch before the wire call: if anything invalidates the
		// path while the create is in flight (a racing rename of an
		// ancestor), the committed entry below stays out rather than landing
		// over the newer invalidation.
		epoch = c.entries.Epoch()
	}
	var entry *wire.Entry
	var leaseMS, grantVer int64
	err := c.call(path, wire.TypeCreate, func(conn *wire.Conn) (string, error) {
		var resp wire.CreateResponse
		req := &wire.CreateRequest{Path: path, Kind: kind}
		if err := conn.CallTraced(wire.TypeCreate, reqID, c.cfg.Name, req, &resp); err != nil {
			return "", err
		}
		entry = resp.Entry
		leaseMS, grantVer = resp.LeaseMS, resp.IndexVer
		return resp.Redirect, nil
	})
	c.record(wire.TypeCreate, reqID, path, "", start, err)
	if err != nil {
		return nil, err
	}
	c.cachePut(path, entry, grantVer, leaseMS, epoch)
	return entry, nil
}

// SetAttr updates a path's attributes (an "update" operation). The cached
// copy, if any, is replaced by the committed entry under a fresh lease, so
// the writer's own next lookup is served locally and current.
func (c *Client) SetAttr(path string, size int64, mode uint32) (*wire.Entry, error) {
	reqID := c.ids.Next()
	start := time.Now()
	var epoch uint64
	if c.entries != nil {
		// Drop the old copy before the wire call, then note the epoch: if
		// anything else invalidates the path while the update is in flight,
		// the committed entry below stays out rather than landing over the
		// newer invalidation.
		c.entries.Invalidate(path)
		epoch = c.entries.Epoch()
	}
	var entry *wire.Entry
	var leaseMS, grantVer int64
	err := c.call(path, wire.TypeSetAttr, func(conn *wire.Conn) (string, error) {
		var resp wire.SetAttrResponse
		req := &wire.SetAttrRequest{Path: path, Size: size, Mode: mode}
		if err := conn.CallTraced(wire.TypeSetAttr, reqID, c.cfg.Name, req, &resp); err != nil {
			return "", err
		}
		entry = resp.Entry
		leaseMS, grantVer = resp.LeaseMS, resp.IndexVer
		return resp.Redirect, nil
	})
	c.record(wire.TypeSetAttr, reqID, path, "", start, err)
	if err != nil {
		return nil, err
	}
	c.cachePut(path, entry, grantVer, leaseMS, epoch)
	return entry, nil
}

// Rename renames a local-layer node (carrying its subtree) in place. Cached
// entries under the old path — the node and every descendant — are
// invalidated (their paths die with the rename), and the committed entry is
// cached under its new path.
func (c *Client) Rename(path, newName string) (*wire.Entry, error) {
	reqID := c.ids.Next()
	start := time.Now()
	if c.entries != nil {
		c.entries.InvalidatePrefix(path)
	}
	var entry *wire.Entry
	var leaseMS, grantVer int64
	err := c.call(path, wire.TypeRename, func(conn *wire.Conn) (string, error) {
		var resp wire.RenameResponse
		req := &wire.RenameRequest{Path: path, NewName: newName}
		if err := conn.CallTraced(wire.TypeRename, reqID, c.cfg.Name, req, &resp); err != nil {
			return "", err
		}
		entry = resp.Entry
		leaseMS, grantVer = resp.LeaseMS, resp.IndexVer
		return resp.Redirect, nil
	})
	c.record(wire.TypeRename, reqID, path, "", start, err)
	if err != nil {
		return nil, err
	}
	if c.entries != nil && entry != nil {
		// Again after the commit: a concurrent lookup may have re-cached an
		// old-name path while the rename was in flight, and stale residents
		// under the new name predate the subtree-wide version bump. Then pin
		// the committed entry under its new path.
		c.entries.InvalidatePrefix(path)
		c.entries.InvalidatePrefix(entry.Path)
		c.cachePut(entry.Path, entry, grantVer, leaseMS, c.entries.Epoch())
	}
	return entry, nil
}

// Readdir lists a directory's children: the serving MDS's view merged with
// the client's cached local index, so subtree roots hosted elsewhere appear
// even while the server's own index snapshot is still catching up.
func (c *Client) Readdir(path string) ([]string, error) {
	reqID := c.ids.Next()
	start := time.Now()
	var names []string
	var dirVersion, leaseMS int64
	err := c.call(path, wire.TypeReaddir, func(conn *wire.Conn) (string, error) {
		var resp wire.ReaddirResponse
		if err := conn.CallTraced(wire.TypeReaddir, reqID, c.cfg.Name, &wire.ReaddirRequest{Path: path}, &resp); err != nil {
			return "", err
		}
		names = resp.Names
		dirVersion, leaseMS = resp.DirVersion, resp.LeaseMS
		return resp.Redirect, nil
	})
	c.record(wire.TypeReaddir, reqID, path, "", start, err)
	if err != nil {
		return nil, err
	}
	if c.entries != nil && dirVersion > 0 {
		// The listing proves the parent directory is current at DirVersion;
		// renew its cached entry's lease under the server's grant.
		c.entries.RenewFor(path, dirVersion, c.leaseOf(leaseMS))
	}
	// The same in-place merge as mergeChildRoots, on names: both sides
	// arrive sorted, since siblings order by name as they do by path.
	c.mu.Lock()
	for _, root := range c.index.ChildRoots(path) {
		name := root[strings.LastIndexByte(root, '/')+1:]
		if at, found := slices.BinarySearch(names, name); !found {
			names = slices.Insert(names, at, name)
		}
	}
	c.mu.Unlock()
	return names, nil
}

// Stats fetches one MDS's counters by address.
func (c *Client) Stats(addr string) (*wire.StatsResponse, error) {
	conn, err := c.conn(addr)
	if err != nil {
		return nil, err
	}
	var resp wire.StatsResponse
	if err := conn.Call(wire.TypeStats, nil, &resp); err != nil {
		if !wire.IsRemote(err) {
			c.dropConn(addr, conn)
		}
		return nil, err
	}
	return &resp, nil
}

// MonitorStats fetches the Monitor's coordinator counters.
func (c *Client) MonitorStats() (*wire.MonitorStatsResponse, error) {
	c.mu.Lock()
	mon := c.mon
	c.mu.Unlock()
	if mon == nil {
		return nil, ErrNotConnected
	}
	var resp wire.MonitorStatsResponse
	if err := mon.Call(wire.TypeMonitorStats, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ObsDump fetches one MDS's buffered events and op histograms by address.
// since returns only events newer than that sequence number (0 = all).
func (c *Client) ObsDump(addr string, since uint64) (*wire.ObsDumpResponse, error) {
	conn, err := c.conn(addr)
	if err != nil {
		return nil, err
	}
	var resp wire.ObsDumpResponse
	if err := conn.Call(wire.TypeObsDump, &wire.ObsDumpRequest{SinceSeq: since}, &resp); err != nil {
		if !wire.IsRemote(err) {
			c.dropConn(addr, conn)
		}
		return nil, err
	}
	return &resp, nil
}

// MonitorObsDump fetches the Monitor's buffered events and op histograms.
func (c *Client) MonitorObsDump(since uint64) (*wire.ObsDumpResponse, error) {
	c.mu.Lock()
	mon := c.mon
	c.mu.Unlock()
	if mon == nil {
		return nil, ErrNotConnected
	}
	var resp wire.ObsDumpResponse
	if err := mon.Call(wire.TypeObsDump, &wire.ObsDumpRequest{SinceSeq: since}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Obs returns the client's own event recorder.
func (c *Client) Obs() *obs.Recorder { return c.rec }

// CacheCounters snapshots the entry cache's hit/miss/expiry/renewal
// counters (zero-valued when the cache is disabled).
func (c *Client) CacheCounters() cache.Counters {
	if c.entries == nil {
		return cache.Counters{}
	}
	return c.entries.Counters()
}

// Index returns a copy of the cached subtree index (tests, tools).
func (c *Client) Index() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index.Map()
}

// Servers returns the cached MDS address list.
func (c *Client) Servers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.servers))
	copy(out, c.servers)
	return out
}

// Refresh forces a cluster-info refresh (tests, failover).
func (c *Client) Refresh() error { return c.refreshClusterInfo() }
