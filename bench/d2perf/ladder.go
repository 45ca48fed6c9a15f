package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"d2tree/internal/cache"
	"d2tree/internal/client"
	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// The rung probes time calls into each layer's public functions from
// outside, serially (or at a stated caller count), after the measured
// window, against the still-live cluster. Every call is wrapped in a span.
// A rung reports the median call, which a stray scheduling stall does not
// move; the rungs are then compared by subtraction (see closeLadder).

// rungTimer times one rung's calls and files each as a span.
type rungTimer struct {
	name  string
	start time.Time // the run's zero, so rung spans share the lanes' clock
	lat   []int64
	spans *[]span
}

func (r *rungTimer) time(fn func() error) error {
	t0 := time.Since(r.start)
	err := fn()
	t1 := time.Since(r.start)
	r.lat = append(r.lat, int64(t1-t0))
	*r.spans = append(*r.spans, span{op: r.name, start: t0, end: t1, failed: err != nil})
	return err
}

// medianUS is the rung's median call in µs.
func (r *rungTimer) medianUS() float64 {
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	return float64(percentile(r.lat, 50)) / 1e3
}

// prober holds what the rungs share.
type prober struct {
	ctl    *client.Client // cache off, private connections
	st     *stream
	ops    int
	dir    string // scratch space for the WAL rung
	start  time.Time
	spans  []span
	values map[string]float64
}

func (p *prober) rung(name string) *rungTimer {
	return &rungTimer{name: "rung:" + name, start: p.start, spans: &p.spans}
}

// distinct returns up to n distinct values of the stream column that pass
// keep, in stream order.
func distinct(col []string, n int, keep func(string) bool) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range col {
		if len(out) == n {
			break
		}
		if seen[s] || !keep(s) {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// owner returns the MDS that the cached index maps path to, and whether the
// path sits in the local layer (under an indexed subtree root) at all.
func owner(index map[string]string, path string) (string, bool) {
	for cur := path; ; {
		if a, ok := index[cur]; ok {
			return a, true
		}
		i := strings.LastIndexByte(cur, '/')
		if i <= 0 {
			return "", false
		}
		cur = cur[:i]
	}
}

// probeWireCodec: wire.WriteFrame + wire.ReadFrame of a lookup request and
// its response into a buffer, with the payload encode and decode every call
// pays around them.
func (p *prober) probeWireCodec() error {
	path := p.st.paths[0]
	entry := &wire.Entry{Path: path, Kind: wire.EntryFile, Size: 4096, Mode: 0o644, Version: 7}
	var buf bytes.Buffer
	var frameBytes int
	round := func() error {
		buf.Reset()
		req, err := wire.NewEnvelope(1, wire.TypeLookup, &wire.LookupRequest{Path: path})
		if err != nil {
			return err
		}
		req.ReqID, req.Span = "r-0000000000000001", "lane-0"
		if err := wire.WriteFrame(&buf, req); err != nil {
			return err
		}
		frameBytes = buf.Len()
		got, err := wire.ReadFrame(&buf)
		if err != nil {
			return err
		}
		var lr wire.LookupRequest
		if err := got.Decode(&lr); err != nil {
			return err
		}
		resp, err := wire.NewEnvelope(1, wire.TypeOK, &wire.LookupResponse{Entry: entry, LeaseMS: 2000, IndexVer: 3})
		if err != nil {
			return err
		}
		resp.ReqID, resp.Span = req.ReqID, req.Span
		if err := wire.WriteFrame(&buf, resp); err != nil {
			return err
		}
		frameBytes += buf.Len()
		if got, err = wire.ReadFrame(&buf); err != nil {
			return err
		}
		var out wire.LookupResponse
		if err := got.Decode(&out); err != nil {
			return err
		}
		if out.Entry == nil || out.Entry.Path != lr.Path {
			return errors.New("wire codec round trip lost the entry")
		}
		return nil
	}
	r := p.rung("wire.codec")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < p.ops; i++ {
		if err := r.time(round); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	p.values["wire.codec_ns"] = r.medianUS() * 1e3
	// The span append is the harness's own allocation, amortised to ~0.
	p.values["wire.codec_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(p.ops)
	p.values["wire.frame_bytes"] = float64(frameBytes)
	return nil
}

// echoEnv switches the d2perf binary into its echo-server mode: the wire
// layer's serving loop behind a canned-response handler, and nothing else.
// Running it as a child process puts the same two scheduler wake-ups per
// call under the echo rung as under a real d2mds, so the rungs nest.
const echoEnv = "D2PERF_ECHO"

// cannedLookup is the echo server's one answer.
func cannedLookup() *wire.LookupResponse {
	return &wire.LookupResponse{
		Entry:   &wire.Entry{Path: "/d2perf/echo", Kind: wire.EntryFile, Size: 4096, Mode: 0o644, Version: 7},
		LeaseMS: 2000, IndexVer: 3,
	}
}

// serveEcho accepts connections and answers every request with the canned
// lookup response through wire.ServeWorkers, until the listener is closed.
// ready receives the listen address first.
func serveEcho(ln net.Listener, ready func(addr string)) {
	canned := cannedLookup()
	ready(ln.Addr().String())
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wire.ServeWorkers(nc, func(*wire.Envelope) (interface{}, error) { return canned, nil },
				wire.DefaultServeWorkers)
			_ = nc.Close()
		}()
	}
}

// echoMain is the child process's main: serve until killed.
func echoMain() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveEcho(ln, func(addr string) { fmt.Println("d2perf echo listening on", addr) })
	return nil
}

// timeParallel runs fn from `callers` goroutines, `each` calls apiece, and
// returns one rung holding every call. A caller stops at its first error.
func (p *prober) timeParallel(name string, callers, each int, fn func(caller int) error) (*rungTimer, error) {
	timers := make([]*rungTimer, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := range timers {
		// Private span slices: concurrent callers must not share one.
		timers[c] = &rungTimer{name: "rung:" + name, start: p.start, spans: new([]span)}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each && errs[c] == nil; i++ {
				errs[c] = timers[c].time(func() error { return fn(c) })
			}
		}(c)
	}
	wg.Wait()
	all := p.rung(name)
	for c, t := range timers {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all.lat = append(all.lat, t.lat...)
		p.spans = append(p.spans, *t.spans...)
	}
	return all, nil
}

// dialEcho connects to an echo server and returns one canned-lookup call.
func dialEcho(addr, path string) (call func() error, closeConn func(), err error) {
	conn, err := wire.DialCall(addr, 2*time.Second, 2*time.Second)
	if err != nil {
		return nil, nil, err
	}
	call = func() error {
		var resp wire.LookupResponse
		return conn.Call(wire.TypeLookup, &wire.LookupRequest{Path: path}, &resp)
	}
	return call, func() { _ = conn.Close() }, nil
}

// probeEchoInproc: wire.Conn.Call over loopback to wire.ServeWorkers with a
// canned-response handler in this process, client and server sharing the one
// P: the wire path's CPU cost at both ends, with no cross-process wake-up.
func (p *prober) probeEchoInproc() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveEcho(ln, func(string) {})
	}()
	defer func() {
		_ = ln.Close() // ends serveEcho once the probe's connection is closed
		<-served
	}()
	call, closeConn, err := dialEcho(ln.Addr().String(), p.st.paths[0])
	if err != nil {
		return err
	}
	defer closeConn()
	r := p.rung("wire.echo_inproc")
	for i := 0; i < p.ops; i++ {
		if err := r.time(call); err != nil {
			return err
		}
	}
	p.values["wire.echo_inproc_us"] = r.medianUS()
	return nil
}

// mdsConns makes raw calls to the d2mds that owns a path, bypassing client
// routing: the owner comes from a copy of the client's index, refreshed when
// a server answers with a redirect because the subtree has moved since.
type mdsConns struct {
	ctl   *client.Client
	index map[string]string
	conns map[string]*wire.Conn
	calls int
	moved int // calls answered by a redirect, left out of their rung
}

func newMDSConns(ctl *client.Client) *mdsConns {
	return &mdsConns{ctl: ctl, index: ctl.Index(), conns: make(map[string]*wire.Conn)}
}

func (m *mdsConns) close() {
	for _, c := range m.conns {
		_ = c.Close()
	}
}

func (m *mdsConns) local(path string) bool { _, ok := owner(m.index, path); return ok }

// call times one raw request for a local-layer path under r. do returns the
// response's redirect address, if any.
func (m *mdsConns) call(r *rungTimer, path string, do func(*wire.Conn) (string, error)) error {
	addr, ok := owner(m.index, path)
	if !ok {
		return fmt.Errorf("%s left the local layer during the probe", path)
	}
	conn, ok := m.conns[addr]
	if !ok {
		var err error
		if conn, err = wire.DialCall(addr, 2*time.Second, 2*time.Second); err != nil {
			return err
		}
		m.conns[addr] = conn
	}
	m.calls++
	var redirect string
	if err := r.time(func() (err error) { redirect, err = do(conn); return err }); err != nil {
		return err
	}
	if redirect != "" {
		// Not the server's cost for the operation: drop the sample.
		r.lat = r.lat[:len(r.lat)-1]
		*r.spans = (*r.spans)[:len(*r.spans)-1]
		m.moved++
		if err := m.ctl.Refresh(); err != nil {
			return err
		}
		m.index = m.ctl.Index()
	}
	return nil
}

// probeLookupLadder times the three rungs of a point lookup — the echo
// server, a raw lookup to the owning d2mds, and Client.Lookup — so that they
// nest. On this kind of machine a serial call to a process that has been
// idle for a few hundred µs pays a wake-up several times the work itself,
// so each rung must find its server equally warm:
//   - the echo server is this binary re-executed as a child process, paying
//     the same two cross-process wake-ups per call as a d2mds;
//   - every path is owned by one and the same d2mds, so the lookups do not
//     alternate between two half-idle processes;
//   - the rungs take turns in blocks of ladderBlock back-to-back calls: long
//     enough that a block's first, cold call does not reach the median,
//     short enough that a change of regime (where the scheduler puts the
//     processes, migrations still running after the load) weighs on all
//     three rungs alike.
//
// It ends with the echo child at 16 callers on one connection.
func (p *prober) probeLookupLadder(m *mdsConns, paths []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child, err := startProc("d2perf-echo", filepath.Join(p.dir, "echo.log"), []string{echoEnv + "=1"}, self)
	if err != nil {
		return err
	}
	defer child.kill()
	addr, err := child.waitAddr(10 * time.Second)
	if err != nil {
		return err
	}
	echoCall, closeConn, err := dialEcho(addr, paths[0])
	if err != nil {
		return err
	}
	defer closeConn()

	first, _ := owner(m.index, paths[0])
	var sameOwner []string
	for _, path := range paths {
		if a, _ := owner(m.index, path); a == first {
			sameOwner = append(sameOwner, path)
		}
	}
	echo, server, cl := p.rung("wire.echo"), p.rung("server.lookup"), p.rung("client.lookup")
	rungs := []func(path string) error{
		func(string) error { return echo.time(echoCall) },
		func(path string) error {
			return m.call(server, path, func(c *wire.Conn) (string, error) {
				var resp wire.LookupResponse
				err := c.Call(wire.TypeLookup, &wire.LookupRequest{Path: path}, &resp)
				return resp.Redirect, err
			})
		},
		func(path string) error {
			return cl.time(func() error { _, err := p.ctl.Lookup(path); return err })
		},
	}
	for lo := 0; lo < p.ops; lo += ladderBlock {
		for _, call := range rungs {
			for i := lo; i < lo+ladderBlock; i++ {
				if err := call(sameOwner[i%len(sameOwner)]); err != nil {
					return err
				}
			}
		}
	}
	p.values["wire.echo_us"] = echo.medianUS()
	p.values["server.lookup_us"] = server.medianUS()
	p.values["client.lookup_us"] = cl.medianUS()

	many, err := p.timeParallel("wire.echo16", 16, p.ops/4, func(int) error { return echoCall() })
	if err != nil {
		return err
	}
	p.values["wire.echo16_us"] = many.medianUS()
	return nil
}

// probeServer: the lookup ladder, then raw setattr and readdirplus calls to
// the owning d2mds, then Client.SetAttr on global-layer paths.
func (p *prober) probeServer() error {
	m := newMDSConns(p.ctl)
	defer m.close()
	paths := distinct(p.st.paths, 256, m.local)
	dirs := distinct(p.st.parents, 256, func(s string) bool { return s != "/" && m.local(s) })
	global := distinct(p.st.paths, 64, func(s string) bool { return !m.local(s) })
	if len(paths) == 0 || len(dirs) == 0 || len(global) == 0 {
		return errors.New("the stream lacks local-layer paths, directories or global-layer paths to probe")
	}
	if err := p.probeLookupLadder(m, paths); err != nil {
		return err
	}

	// On a cluster started with -wal-dir this includes the group-commit
	// fsync; on the others it is the in-memory update alone.
	setattr := p.rung("server.setattr")
	for i := 0; i < p.ops; i++ {
		path := paths[i%len(paths)]
		if err := m.call(setattr, path, func(c *wire.Conn) (string, error) {
			var resp wire.SetAttrResponse
			err := c.Call(wire.TypeSetAttr, &wire.SetAttrRequest{Path: path, Size: int64(i), Mode: 0o644}, &resp)
			return resp.Redirect, err
		}); err != nil {
			return err
		}
	}
	p.values["server.setattr_us"] = setattr.medianUS()

	rdp := p.rung("server.readdirplus")
	var children int
	for i := 0; i < p.ops/2; i++ {
		dir := dirs[i%len(dirs)]
		if err := m.call(rdp, dir, func(c *wire.Conn) (string, error) {
			var resp wire.ReaddirPlusResponse
			err := c.Call(wire.TypeReaddirPlus, &wire.ReaddirPlusRequest{Path: dir}, &resp)
			children += len(resp.Entries)
			return resp.Redirect, err
		}); err != nil {
			return err
		}
	}
	var rdpNS int64
	for _, ns := range rdp.lat {
		rdpNS += ns
	}
	p.values["server.readdirplus_us"] = rdp.medianUS()
	if children > 0 {
		p.values["server.readdirplus_us_per_child"] = float64(rdpNS) / 1e3 / float64(children)
	}
	// A rung that mostly chased moving subtrees measured the migration, not
	// the server.
	if m.moved > m.calls/4 {
		return fmt.Errorf("%d of %d raw calls were redirected: subtrees moved faster than the probe", m.moved, m.calls)
	}

	// Global-layer updates go MDS → Monitor → locksvc, then out to the other
	// replicas with their heartbeats.
	gl := p.rung("monitor.gl_setattr")
	for i := 0; i < p.ops/4; i++ {
		path := global[i%len(global)]
		if err := gl.time(func() error { _, err := p.ctl.SetAttr(path, int64(i), 0o644); return err }); err != nil {
			return err
		}
	}
	p.values["monitor.gl_setattr_us"] = gl.medianUS()
	return nil
}

// probeWAL: wal.Batcher.Append in a scratch directory at 1, 8 and 64
// concurrent writers, with the real fsync.
func (p *prober) probeWAL() error {
	for _, w := range []struct {
		writers int
		metric  string
	}{{1, "wal.append_us"}, {8, "wal.append8_us"}, {64, "wal.append64_us"}} {
		log, err := wal.Open(filepath.Join(p.dir, fmt.Sprintf("probe-%d.wal", w.writers)))
		if err != nil {
			return err
		}
		b := wal.NewBatcher(log)
		// Every writer makes the same number of appends, so a flush window
		// holds about `writers` records, as under that many MDS workers.
		r, err := p.timeParallel(w.metric, w.writers, p.ops/8, func(i int) error {
			_, err := b.Append("setattr", &wire.SetAttrRequest{Path: p.st.paths[i], Size: int64(i), Mode: 0o644})
			return err
		})
		_ = b.Close() // flushes nothing: every append already waited
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		p.values[w.metric] = r.medianUS()
	}
	return nil
}

// probeCache: cache.Get, and cache.PutLeased on a miss, over the path stream
// on one goroutine with the clock held still, so the hit count repeats
// exactly for a seed.
func (p *prober) probeCache() error {
	c, err := cache.New(cacheEntries, entryLease)
	if err != nil {
		return err
	}
	now := time.Unix(0, 0)
	c.SetClock(func() time.Time { return now })
	r := p.rung("cache.get")
	// One span per 1000 gets: a span per ~50 ns call would time the clock.
	const chunk = 1000
	for lo := 0; lo+chunk <= len(p.st.paths); lo += chunk {
		_ = r.time(func() error {
			for _, path := range p.st.paths[lo : lo+chunk] {
				if _, ok := c.Get(path); !ok {
					c.PutLeased(path, cache.Entry{Version: 1}, entryLease, c.Epoch())
				}
			}
			return nil
		})
	}
	p.values["cache.get_ns"] = r.medianUS() * 1e3 / chunk
	cc := c.Counters()
	if n := cc.Hits + cc.Misses; n > 0 {
		p.values["cache.probe_hit_ratio"] = float64(cc.Hits) / float64(n)
	}
	return nil
}

// closeLadder derives each rung's self time by subtraction and checks that
// the rungs nest: client.lookup_us ≈ client self + server self + wire echo.
// The selves are clamped at 0, so the sum leaves 1.0 exactly when a lower
// rung measured dearer than the one above it.
func (p *prober) closeLadder() {
	v := p.values
	v["server.self_us"] = max(0, v["server.lookup_us"]-v["wire.echo_us"])
	v["client.self_us"] = max(0, v["client.lookup_us"]-v["server.lookup_us"])
	if v["client.lookup_us"] > 0 {
		v["ladder.closure"] = (v["client.self_us"] + v["server.self_us"] + v["wire.echo_us"]) / v["client.lookup_us"]
	}
}
