package server

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

var replaySeeds = flag.Int("replay.seeds", 100, "seeded schedules TestReplayEqualsLive runs")

// peerGL is the global layer startPeer's Monitor starts with, the one the
// tests that use it install.
var peerGL = []wire.Entry{
	{Path: "/", Kind: wire.EntryDir, Version: 1},
	{Path: "/g", Kind: wire.EntryDir, Version: 1},
	{Path: "/g/a", Kind: wire.EntryDir, Version: 1},
	{Path: "/g/b", Kind: wire.EntryDir, Version: 1},
	{Path: "/g/gf", Kind: wire.EntryFile, Version: 1},
}

// startPeer serves what an MDS sends out, answering the same way every time:
// a Monitor's gl_update (the entry as asked, at version 7, GL version 1, of
// the kind it holds: a setattr asks with none) and transfer_done, and a
// transfer destination's install. It returns the listener's address and a
// Monitor channel to it.
func startPeer(t testing.TB) (string, *wire.RetryingConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var kinds sync.Map // path → the wire.EntryKind the Monitor holds there
	for _, e := range peerGL {
		kinds.Store(e.Path, e.Kind)
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go wire.Serve(nc, func(env *wire.Envelope) (interface{}, error) {
				if env.Type != wire.TypeGLUpdate {
					return &wire.LockResponse{Granted: true}, nil
				}
				var req wire.GLUpdateRequest
				if err := env.Decode(&req); err != nil {
					return nil, err
				}
				if req.Op == "create" {
					kinds.Store(req.Entry.Path, req.Entry.Kind)
				} else if k, ok := kinds.Load(req.Entry.Path); ok {
					req.Entry.Kind = k.(wire.EntryKind)
				}
				req.Entry.Version = 7
				return &wire.GLUpdateResponse{Entry: req.Entry, GLVersion: 1}, nil
			})
		}
	}()
	mon := wire.NewRetryingConn(ln.Addr().String(), wire.RetryOptions{})
	t.Cleanup(func() {
		_ = mon.Close()
		_ = ln.Close()
	})
	return ln.Addr().String(), mon
}

// storeDigest renders everything the store holds, both layers, with the
// owned roots and the GL version. Callers hold s.mu.
func storeDigest(s *Server) string {
	var lines []string
	s.store.walk("/", func(e *wire.Entry, gl bool) { lines = append(lines, fmt.Sprintf("%+v gl=%v", *e, gl)) })
	sort.Strings(lines)
	return fmt.Sprintf("glv %d\n", s.glVersion) + localDigest(s) + "\n" + strings.Join(lines, "\n")
}

// TestSingleOpEqualsOneOpBatch: every op kind a batch carries answers the
// same through its single-op frame as through a one-op Batch frame, on twin
// servers — hits, redirects, not-found, exists, version match and mismatch,
// invalid paths and global-layer paths forwarded to the Monitor — and leaves
// the same counters and the same store behind.
func TestSingleOpEqualsOneOpBatch(t *testing.T) {
	_, mon := startPeer(t)
	twin := func() *Server {
		s := newBareServer(t)
		s.mon = mon
		s.store.replaceGL([]wire.Entry{
			{Path: "/", Kind: wire.EntryDir, Version: 1},
			{Path: "/g", Kind: wire.EntryDir, Version: 1},
			{Path: "/g/gf", Kind: wire.EntryFile, Version: 2},
		})
		s.index.Set("/g/far", "other:1")
		if _, err := s.handleInstall(&wire.Envelope{}, &wire.InstallRequest{Tree: tree("/g/mine", []wire.Entry{
			{Path: "/g/mine", Kind: wire.EntryDir, Version: 1},
			{Path: "/g/mine/f", Kind: wire.EntryFile, Size: 5, Version: 3},
		})}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	single, batch := twin(), twin()
	file, dir := wire.EntryFile, wire.EntryDir
	for _, op := range []wire.BatchOp{
		{Op: wire.BatchLookup, Path: "/g/mine/f"},
		{Op: wire.BatchLookup, Path: "/g/gf"},
		{Op: wire.BatchLookup, Path: "/g/far/x"},
		{Op: wire.BatchLookup, Path: "/g/mine/nope"},
		{Op: wire.BatchRevalidate, Path: "/g/mine/f", Version: 3},
		{Op: wire.BatchRevalidate, Path: "/g/mine/f", Version: 1},
		{Op: wire.BatchRevalidate, Path: "/g/far/x", Version: 1},
		{Op: wire.BatchRevalidate, Path: "/g/mine/nope", Version: 1},
		{Op: wire.BatchCreate, Path: "/g/mine/new", Kind: file},
		{Op: wire.BatchCreate, Path: "/g/mine/f", Kind: file},
		{Op: wire.BatchCreate, Path: "/g/far/y", Kind: file},
		{Op: wire.BatchCreate, Path: "/g/newgl", Kind: dir},
		{Op: wire.BatchCreate, Path: "relative", Kind: file},
		{Op: wire.BatchCreateAttrs, Path: "/g/mine/d", Kind: dir, Size: 10, Mode: 0o755},
		{Op: wire.BatchCreateAttrs, Path: "/g/mine/d", Kind: dir, Size: 10, Mode: 0o755},
		{Op: wire.BatchCreateAttrs, Path: "/g/newgl2", Kind: file, Size: 3, Mode: 0o600},
		{Op: wire.BatchSetAttr, Path: "/g/mine/f", Size: 99, Mode: 0o640},
		{Op: wire.BatchSetAttr, Path: "/g/far/x", Size: 1},
		{Op: wire.BatchSetAttr, Path: "/g/mine/nope", Size: 1},
		{Op: wire.BatchSetAttr, Path: "/g/gf", Size: 4, Mode: 0o644},
		{Op: wire.BatchRevalidate, Path: "/g/mine/f", Version: 4},
	} {
		want := singleOp(t, single, op)
		got := batchOp(t, batch, op)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s: batch answered %+v (entry %+v), single-op %+v (entry %+v)", op.Op, op.Path, got, got.Entry, want, want.Entry)
		}
		if got, want := counters(batch), counters(single); got != want {
			t.Errorf("%s %s: batch counters %v, single-op %v", op.Op, op.Path, got, want)
		}
		if got, want := batch.hot.Drain(), single.hot.Drain(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s: batch hot counts %v, single-op %v", op.Op, op.Path, got, want)
		}
		single.mu.RLock()
		batch.mu.RLock()
		if got, want := storeDigest(batch), storeDigest(single); got != want {
			t.Errorf("%s %s: batch store\n%s\nsingle-op store\n%s", op.Op, op.Path, got, want)
		}
		batch.mu.RUnlock()
		single.mu.RUnlock()
	}
}

// counters reads the op counters a single-op frame and a one-op batch must
// move alike (ops counts frames, which both are).
func counters(s *Server) [8]int64 {
	return [...]int64{s.ops.Load(), s.lookups.Load(), s.creates.Load(), s.setattrs.Load(),
		s.redirects.Load(), s.leases.Load(), s.revalidateHits.Load(), s.revalidateMisses.Load()}
}

// singleOp sends op through its own frame type and returns the answer as the
// batch result it corresponds to.
func singleOp(t *testing.T, s *Server, op wire.BatchOp) wire.BatchResult {
	t.Helper()
	var typ string
	var req interface{}
	switch op.Op {
	case wire.BatchLookup:
		typ, req = wire.TypeLookup, &wire.LookupRequest{Path: op.Path}
	case wire.BatchRevalidate:
		typ, req = wire.TypeRevalidate, &wire.RevalidateRequest{Path: op.Path, Version: op.Version}
	case wire.BatchCreate:
		typ, req = wire.TypeCreate, &wire.CreateRequest{Path: op.Path, Kind: op.Kind}
	case wire.BatchCreateAttrs:
		typ, req = wire.TypeCreateWithAttrs, &wire.CreateWithAttrsRequest{Path: op.Path, Kind: op.Kind, Size: op.Size, Mode: op.Mode}
	case wire.BatchSetAttr:
		typ, req = wire.TypeSetAttr, &wire.SetAttrRequest{Path: op.Path, Size: op.Size, Mode: op.Mode}
	}
	env, err := wire.NewEnvelope(1, typ, req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.handle(env)
	if err != nil {
		return wire.BatchResult{Err: err.Error()}
	}
	switch r := resp.(type) {
	case *wire.EntryResponse:
		return wire.BatchResult{Entry: r.Entry, Redirect: r.Redirect, LeaseMS: r.LeaseMS, IndexVer: r.IndexVer}
	case *wire.RevalidateResponse:
		return wire.BatchResult{Match: r.Match, Entry: r.Entry, Redirect: r.Redirect, LeaseMS: r.LeaseMS, IndexVer: r.IndexVer}
	}
	t.Fatalf("%s answered a %T", typ, resp)
	return wire.BatchResult{}
}

// batchOp sends op as the only sub-op of a Batch frame.
func batchOp(t *testing.T, s *Server, op wire.BatchOp) wire.BatchResult {
	t.Helper()
	env, err := wire.NewEnvelope(1, wire.TypeBatch, &wire.BatchRequest{Ops: []wire.BatchOp{op}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.handle(env)
	if err != nil {
		t.Fatal(err)
	}
	return resp.(*wire.BatchResponse).Results[0]
}

// TestReplayEqualsLive: live bodies and recovery make each journaled change
// in one place, applyLocked, so they cannot disagree. A seeded schedule of
// single-op and batch frames (creates, setattrs, lookups, revalidates, global
// paths among them), renames, installs, uninstalls, outgoing transfers,
// heartbeat drops, re-joins, snapshots (some between a commit and its wait)
// and restarts runs against a journaled server that records its local-layer
// state after every applied record. A restart must come back with the state
// it left. Copies of the data directory taken along the way are then
// recovered whole, cut at sampled record boundaries and at one torn byte, and
// each must equal the live state at the newest record it holds. Every answer
// must leave with what it carries durable: when a handler returns, the log
// holds every record applied so far. ci.sh runs it at -replay.seeds 1000.
func TestReplayEqualsLive(t *testing.T) {
	peer, mon := startPeer(t)
	for seed := int64(1); seed <= int64(*replaySeeds); seed++ {
		replaySchedule(t, peer, mon, seed)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

// crashImage is a data directory's files as a crash could have left them,
// and how many records the live server had applied then.
type crashImage struct {
	snap, log []byte
	applied   int
}

func replaySchedule(t *testing.T, peer string, mon *wire.RetryingConn, seed int64) {
	const steps = 40
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	env := &wire.Envelope{}
	gl := peerGL
	var roots []string
	for _, up := range []string{"/g/a", "/g/b"} {
		for i := 0; i < 3; i++ {
			roots = append(roots, fmt.Sprintf("%s/r%d", up, i))
		}
	}
	name := func(prefix string) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(6)) }
	subtree := func(root string) []wire.Entry {
		out := []wire.Entry{{Path: root, Kind: wire.EntryDir, Version: 1}}
		for i := rng.Intn(5); i > 0; i-- {
			kind := wire.EntryFile
			if rng.Intn(2) == 0 {
				kind = wire.EntryDir
			}
			out = append(out, wire.Entry{Path: root + "/" + name("i"), Kind: kind, Version: int64(1 + rng.Intn(3))})
		}
		return out
	}
	var s *Server
	var live []string
	// index routes the held roots here and the rest elsewhere, as the
	// Monitor would.
	index := func() map[string]string {
		m := map[string]string{}
		for _, root := range roots {
			m[root] = "other:1"
			if s.subtrees[root] {
				m[root] = s.Addr()
			}
		}
		return m
	}
	// boot opens the server on dir, recovering what it holds, and gives it
	// the global layer and the index a join would: neither is journaled. A
	// restart must recover the state the server left.
	boot := func() {
		s = New(Config{Addr: "127.0.0.1:0", MonitorAddr: "unused", WALDir: dir})
		if err := s.openJournal(); err != nil {
			t.Fatal(err)
		}
		s.mon = mon
		s.mu.Lock()
		defer s.mu.Unlock()
		s.store.replaceGL(gl)
		for root, addr := range index() {
			s.index.Set(root, addr)
		}
		if d := localDigest(s); len(live) == 0 {
			live = append(live, d)
		} else if d != live[len(live)-1] {
			t.Fatalf("seed %d: a restart after record %d recovered\n%s\nthe server held\n%s", seed, len(live)-1, d, live[len(live)-1])
		}
		s.applied = func() { live = append(live, localDigest(s)) }
	}
	boot()
	defer func() { s.closeJournal() }()

	// paths lists, sorted, the local-layer entries, or the directories among
	// them.
	paths := func(dirs bool) []string {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var out []string
		s.store.walk("/", func(e *wire.Entry, gl bool) {
			if !gl && (!dirs || e.Kind == wire.EntryDir) {
				out = append(out, e.Path)
			}
		})
		sort.Strings(out)
		return out
	}
	held := func() []string {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var out []string
		for root := range s.subtrees {
			out = append(out, root)
		}
		sort.Strings(out)
		return out
	}
	pick := func(cands ...[]string) string {
		var all []string
		for _, c := range cands {
			all = append(all, c...)
		}
		return all[rng.Intn(len(all))]
	}
	// target is a path an op may name: a local entry or a new one beside it,
	// a global-layer path, a path under a root routed here or elsewhere.
	target := func() string {
		glPaths := []string{"/g/gf", "/g/a", "/g/new"}
		switch rng.Intn(4) {
		case 0:
			return pick(glPaths, roots) + "/" + name("n")
		case 1:
			return pick(glPaths, paths(false))
		}
		return pick(paths(true), roots) + "/" + name("n")
	}
	kind := func() wire.EntryKind {
		if rng.Intn(3) == 0 {
			return wire.EntryDir
		}
		return wire.EntryFile
	}
	// durable holds an answer to the rule: it left with every applied
	// record on disk, in the snapshot image or in the log.
	durable := func(op string) {
		t.Helper()
		var last int64
		if img, err := readImage(s.imagePath()); err == nil {
			last = img.Horizon
		} else if !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := wal.Replay(s.walPath(), func(rec wal.Record) error {
			last = rec.Seq
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if last < int64(len(live)-1) {
			t.Fatalf("seed %d: %s answered with records up to %d of %d on disk", seed, op, last, len(live)-1)
		}
	}
	var images []crashImage
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(16); {
		case op == 0 || step < 2:
			root := pick(roots)
			if _, err := s.handleInstall(env, &wire.InstallRequest{Tree: tree(root, subtree(root))}); err != nil {
				t.Fatal(err)
			}
			durable("install")
		case op <= 2:
			e := wire.Entry{Path: target(), Kind: kind()}
			if rng.Intn(2) == 0 {
				_, _ = s.handleCreate(env, &wire.CreateRequest{Path: e.Path, Kind: e.Kind})
			} else {
				_, _ = s.handleCreateWithAttrs(env, &wire.CreateWithAttrsRequest{Path: e.Path, Kind: e.Kind, Size: 9, Mode: 0o600})
			}
			durable("create")
		case op == 3:
			_, _ = s.handleSetAttr(env, &wire.SetAttrRequest{Path: target(), Size: rng.Int63n(1000), Mode: 0o644})
			durable("setattr")
		case op <= 5:
			req := &wire.BatchRequest{}
			for i := 1 + rng.Intn(5); i > 0; i-- {
				kinds := []string{wire.BatchLookup, wire.BatchRevalidate, wire.BatchCreate, wire.BatchCreateAttrs, wire.BatchSetAttr}
				req.Ops = append(req.Ops, wire.BatchOp{Op: kinds[rng.Intn(len(kinds))], Path: target(), Kind: kind(),
					Size: rng.Int63n(1000), Mode: 0o640, Version: int64(rng.Intn(3))})
			}
			if _, err := s.handleBatch(env, req); err != nil {
				t.Fatal(err)
			}
			durable("batch")
		case op <= 7:
			_, _ = s.handleRename(&wire.RenameRequest{Path: pick(paths(false), []string{"/g/gf"}), NewName: name("m")})
			durable("rename")
		case op == 8:
			_, _ = s.handleUninstall(&wire.UninstallRequest{RootPath: pick(roots)})
			durable("uninstall")
		case op == 9 && len(held()) > 0:
			s.executeTransfer(wire.TransferCommand{RootPath: pick(held()), DestAddr: peer, ReqID: "m"})
			durable("transfer")
		case op == 10 && len(held()) > 0:
			s.mu.RLock()
			ix := index()
			s.mu.RUnlock()
			ix[pick(held())] = "other:1"
			s.applyHeartbeat(&wire.HeartbeatResponse{Index: ix})
			durable("heartbeat")
		case op == 11:
			// A re-join: the Monitor adopts some of the claims and assigns
			// one more subtree.
			join := &wire.JoinResponse{GlobalLayer: gl}
			for _, root := range held() {
				if rng.Intn(3) > 0 {
					join.AdoptedSubtrees = append(join.AdoptedSubtrees, root)
				}
			}
			root := pick(roots)
			join.Trees = []wire.Subtree{tree(root, subtree(root))}
			s.mu.Lock()
			join.Index = index()
			for _, r := range join.AdoptedSubtrees {
				join.Index[r] = s.Addr()
			}
			join.Index[root] = s.Addr()
			s.applyJoinLocked(join)
			tail := s.journal.Tail()
			s.mu.Unlock()
			s.waitDurable(tail)
			durable("join")
		case op == 12:
			if err := s.writeSnapshot(); err != nil {
				t.Fatal(err)
			}
		case op == 13:
			// A snapshot between a commit and its wait: a create under a
			// local directory, then that directory's rename, both enqueued
			// and applied but not awaited when the image is taken.
			d := pick(paths(true), roots)
			s.mu.Lock()
			_, _, _ = s.createLocked(wire.Entry{Path: d + "/" + name("w"), Kind: kind()})
			_, _ = s.renameLocked(d, name("m"))
			tail := s.journal.Tail()
			s.mu.Unlock()
			if err := s.writeSnapshot(); err != nil {
				t.Fatal(err)
			}
			s.waitDurable(tail)
		case op == 14:
			s.closeJournal()
			boot()
		default:
			if rng.Intn(2) == 0 {
				_, _ = s.handleLookup(&wire.LookupRequest{Path: target()})
			} else {
				_, _ = s.handleRevalidate(&wire.RevalidateRequest{Path: target(), Version: 1})
			}
		}
		if rng.Intn(6) == 0 {
			images = append(images, takeImage(t, s, len(live)-1))
		}
	}
	s.closeJournal()
	images = append(images, takeImage(t, s, len(live)-1))

	scratch := t.TempDir()
	check := func(img crashImage, n int, how string) {
		t.Helper()
		horizon := 0
		path := filepath.Join(scratch, "snapshot.img")
		_ = os.Remove(path)
		if img.snap != nil {
			if err := os.WriteFile(path, img.snap, 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := readImage(path)
			if err != nil {
				t.Fatal(err)
			}
			horizon = int(snap.Horizon)
		}
		if err := os.WriteFile(filepath.Join(scratch, "mds.wal"), img.log[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		k := horizon
		for _, r := range logRecords(img.log) {
			if r.end <= n {
				k = max(k, r.seq)
			}
		}
		if n == len(img.log) && k != img.applied {
			t.Fatalf("seed %d: an image taken after record %d holds records up to %d", seed, img.applied, k)
		}
		if got := recoveredDigest(t, scratch); got != live[k] {
			t.Fatalf("seed %d: recovered from %s (%d of %d bytes, snapshot horizon %d) is not the live state after record %d:\nrecovered:\n%s\nlive:\n%s",
				seed, how, n, len(img.log), horizon, k, got, live[k])
		}
	}
	for i, img := range images {
		if i < len(images)-1 && rng.Intn(2) == 0 {
			continue
		}
		check(img, len(img.log), "a whole image")
		recs := logRecords(img.log)
		if len(recs) == 0 {
			continue
		}
		check(img, recs[rng.Intn(len(recs))].end, "a record boundary")
		check(img, rng.Intn(len(img.log)), "a torn tail")
	}
}

// takeImage copies the server's data directory once every record applied
// so far is durable.
func takeImage(t *testing.T, s *Server, applied int) crashImage {
	t.Helper()
	s.mu.RLock()
	tail := s.journal.Tail()
	s.mu.RUnlock()
	s.waitDurable(tail)
	img := crashImage{applied: applied}
	var err error
	if img.log, err = os.ReadFile(s.walPath()); err != nil {
		t.Fatal(err)
	}
	if img.snap, err = os.ReadFile(s.imagePath()); os.IsNotExist(err) {
		img.snap = nil
	} else if err != nil {
		t.Fatal(err)
	}
	return img
}

// logRecords returns each record of a log: its sequence number and the byte
// offset just past it.
func logRecords(log []byte) []logRecord {
	var out []logRecord
	for off := 9; off+8 <= len(log); { // past the log's version and base
		end := off + 8 + int(binary.BigEndian.Uint32(log[off:]))
		if end > len(log) {
			break
		}
		seq, n := binary.Uvarint(log[off+8 : end])
		if n <= 0 {
			break
		}
		out = append(out, logRecord{seq: int(seq), end: end})
		off = end
	}
	return out
}

type logRecord struct{ seq, end int }
