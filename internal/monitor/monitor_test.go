package monitor

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

func testTree(t *testing.T) *trace.Workload {
	t.Helper()
	w, err := trace.BuildWorkload(trace.DTR().Scale(800), 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidation(t *testing.T) {
	w := testTree(t)
	if _, err := New(nil, Config{Servers: 2}); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := New(w.Tree, Config{Servers: 0}); err == nil {
		t.Error("zero servers accepted")
	}
}

func TestNewPartitionsGlobalLayer(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantGL := int(0.01 * float64(w.Tree.Len()))
	if got := len(m.glEntries); got != wantGL {
		t.Errorf("GL entries = %d, want %d", got, wantGL)
	}
	if _, ok := m.glEntries["/"]; !ok {
		t.Error("root missing from GL")
	}
	if len(m.subtreeOwner) == 0 {
		t.Error("no subtrees allocated")
	}
	for root, owner := range m.subtreeOwner {
		if owner < 0 || owner >= 3 {
			t.Errorf("subtree %s owned by invalid server %d", root, owner)
		}
	}
}

func TestJoinAssignsSequentialIDs(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r0, err := m.handleJoin(&wire.JoinRequest{Addr: "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := m.handleJoin(&wire.JoinRequest{Addr: "b:2"})
	if err != nil {
		t.Fatal(err)
	}
	if r0.ServerID != 0 || r1.ServerID != 1 {
		t.Errorf("IDs = %d, %d", r0.ServerID, r1.ServerID)
	}
	if _, err := m.handleJoin(&wire.JoinRequest{Addr: "c:3"}); !errors.Is(err, ErrClusterFull) {
		t.Errorf("want ErrClusterFull, got %v", err)
	}
	// Every subtree appears in exactly one join response.
	total := len(r0.Subtrees) + len(r1.Subtrees)
	if total != len(m.subtreeOwner) {
		t.Errorf("subtrees delivered %d, want %d", total, len(m.subtreeOwner))
	}
	if len(r0.GlobalLayer) != len(m.glEntries) || len(r1.GlobalLayer) != len(m.glEntries) {
		t.Error("GL replica incomplete on join")
	}
}

func TestGLUpdateSerialisesAndVersions(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	v0 := m.GLVersion()
	resp, err := m.handleGLUpdate(&wire.GLUpdateRequest{
		ServerID: 0, Op: "setattr",
		Entry: wire.Entry{Path: "/", Size: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.GLVersion != v0+1 || resp.Entry.Version != 2 || resp.Entry.Size != 7 {
		t.Errorf("resp = %+v", resp)
	}
	if _, err := m.handleGLUpdate(&wire.GLUpdateRequest{
		ServerID: 0, Op: "setattr", Entry: wire.Entry{Path: "/nope"},
	}); err == nil {
		t.Error("setattr of non-GL path accepted")
	}
	if _, err := m.handleGLUpdate(&wire.GLUpdateRequest{
		ServerID: 0, Op: "create", Entry: wire.Entry{Path: "/", Kind: wire.EntryDir},
	}); err == nil {
		t.Error("duplicate GL create accepted")
	}
	if _, err := m.handleGLUpdate(&wire.GLUpdateRequest{
		ServerID: 0, Op: "chmod", Entry: wire.Entry{Path: "/"},
	}); err == nil {
		t.Error("unknown GL op accepted")
	}
}

// TestGLUpdatesAreOrderedByTheMonitorMutex is the test the lock service's
// deletion rests on: writers × rounds gl_updates straight into handleGLUpdate,
// creates and setattrs, on one shared path and on a path per writer. m.mu
// alone must order them: every response carries a GL version of its own, the
// GL versions are dense, and so are each path's entry versions.
func TestGLUpdatesAreOrderedByTheMonitorMutex(t *testing.T) {
	const writers, rounds = 8, 50
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	v0 := m.GLVersion()
	resps := make([][]*wire.GLUpdateResponse, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := fmt.Sprintf("/gl-writer-%d", g)
			update := func(op, path string, size int64) {
				resp, err := m.handleGLUpdate(&wire.GLUpdateRequest{
					ServerID: g, Op: op,
					Entry: wire.Entry{Path: path, Kind: wire.EntryFile, Size: size},
				})
				if err != nil {
					t.Errorf("writer %d: %s %s: %v", g, op, path, err)
					return
				}
				if resp.Entry.Path != path || (op == "setattr" && resp.Entry.Size != size) {
					t.Errorf("writer %d: %s %s size %d answered with %+v", g, op, path, size, resp.Entry)
				}
				resps[g] = append(resps[g], resp)
			}
			update("create", own, 0)
			for i := 1; i < rounds; i++ {
				if i%2 == 0 {
					update("setattr", own, int64(i))
				} else {
					update("setattr", "/", int64(g*rounds+i))
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	glSeen := map[int64]bool{}
	entrySeen := map[string]map[int64]bool{}
	for _, rs := range resps {
		for _, r := range rs {
			if glSeen[r.GLVersion] {
				t.Fatalf("GL version %d answered twice", r.GLVersion)
			}
			glSeen[r.GLVersion] = true
			if entrySeen[r.Entry.Path] == nil {
				entrySeen[r.Entry.Path] = map[int64]bool{}
			}
			if entrySeen[r.Entry.Path][r.Entry.Version] {
				t.Fatalf("%s version %d answered twice", r.Entry.Path, r.Entry.Version)
			}
			entrySeen[r.Entry.Path][r.Entry.Version] = true
		}
	}
	for v := v0 + 1; v <= v0+writers*rounds; v++ {
		if !glSeen[v] {
			t.Fatalf("GL version %d never answered: versions are not dense", v)
		}
	}
	if got := m.GLVersion(); got != v0+writers*rounds {
		t.Errorf("GL version ends at %d, want %d", got, v0+writers*rounds)
	}
	for path, seen := range entrySeen {
		// A created path starts at 1; "/" was at 1 and its first setattr is 2.
		first := int64(1)
		if path == "/" {
			first = 2
		}
		for v := first; v < first+int64(len(seen)); v++ {
			if !seen[v] {
				t.Fatalf("%s version %d never answered: versions are not dense", path, v)
			}
		}
	}
}

func TestHeartbeatDetectsFailure(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 2, HeartbeatTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(100, 0)
	m.SetClock(func() time.Time { return now })
	if _, err := m.handleJoin(&wire.JoinRequest{Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.handleJoin(&wire.JoinRequest{Addr: "b:2"}); err != nil {
		t.Fatal(err)
	}
	// Server 0 goes silent; server 1 heartbeats past the timeout.
	now = now.Add(2 * time.Second)
	if _, err := m.handleHeartbeat(&wire.HeartbeatRequest{ServerID: 1, Addr: "b:2", Load: 5}); err != nil {
		t.Fatal(err)
	}
	mem := m.Members()
	if mem[0].Alive {
		t.Error("silent server still alive")
	}
	if !mem[1].Alive {
		t.Error("heartbeating server marked dead")
	}
	// Every subtree of the dead server must have recovery in flight toward
	// server 1 (ownership commits only after the entries are installed —
	// the fake address here never completes, so owners stay unchanged).
	m.mu.Lock()
	defer m.mu.Unlock()
	for root, owner := range m.subtreeOwner {
		if owner != 0 {
			continue
		}
		if f, moving := m.inFlight[root]; !moving || f.dest != 1 {
			t.Errorf("subtree %s of dead server not in recovery: dst=%d moving=%v",
				root, f.dest, moving)
		}
	}
}

func TestHeartbeatStaleVersionsGetRefresh(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.handleJoin(&wire.JoinRequest{Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	resp, err := m.handleHeartbeat(&wire.HeartbeatRequest{
		ServerID: 0, GLVersion: 0, IndexVer: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.GlobalLayer) == 0 {
		t.Error("stale GL version got no refresh")
	}
	if resp.Index == nil {
		t.Error("stale index version got no refresh")
	}
	// Fresh versions get deltas only.
	resp2, err := m.handleHeartbeat(&wire.HeartbeatRequest{
		ServerID: 0, GLVersion: resp.GLVersion, IndexVer: resp.IndexVer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.GlobalLayer) != 0 || resp2.Index != nil {
		t.Error("fresh server got unnecessary refresh")
	}
}

func TestHeartbeatUnknownServer(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.handleHeartbeat(&wire.HeartbeatRequest{ServerID: 5}); err == nil {
		t.Error("unknown server heartbeat accepted")
	}
}

func TestPlanAdjustmentCreatesTransfers(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(100, 0)
	m.SetClock(func() time.Time { return now })
	if _, err := m.handleJoin(&wire.JoinRequest{Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.handleJoin(&wire.JoinRequest{Addr: "b:2"}); err != nil {
		t.Fatal(err)
	}
	// Heartbeat a light and an overloaded server until the load has lasted
	// an adjustment interval: planning and delivery then happen within one
	// heartbeat exchange of the overloaded server.
	var resp *wire.HeartbeatResponse
	for i := 0; i < 30 && (resp == nil || len(resp.Transfers) == 0); i++ {
		now = now.Add(100 * time.Millisecond)
		if _, err := m.handleHeartbeat(&wire.HeartbeatRequest{ServerID: 1, Addr: "b:2", Load: 1}); err != nil {
			t.Fatal(err)
		}
		if resp, err = m.handleHeartbeat(&wire.HeartbeatRequest{ServerID: 0, Addr: "a:1", Load: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	if len(resp.Transfers) == 0 {
		t.Fatal("no transfers planned/delivered for overloaded server")
	}
	for _, cmd := range resp.Transfers {
		if cmd.DestAddr != "b:2" {
			t.Errorf("transfer dest = %q, want b:2", cmd.DestAddr)
		}
		// Ownership stays with the source until TransferDone; the move is
		// tracked in-flight so it is not re-planned.
		m.mu.Lock()
		owner := m.subtreeOwner[cmd.RootPath]
		f, moving := m.inFlight[cmd.RootPath]
		m.mu.Unlock()
		if owner != 0 {
			t.Errorf("subtree %s owner = %d before TransferDone, want 0", cmd.RootPath, owner)
		}
		if !moving || f.dest != 1 {
			t.Errorf("subtree %s in-flight = %d,%v, want 1,true", cmd.RootPath, f.dest, moving)
		}
		// Completing the transfer commits ownership.
		if _, err := m.handleTransferDone(&wire.TransferDoneRequest{
			ServerID: 0, RootPath: cmd.RootPath, DestAddr: cmd.DestAddr,
		}); err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		owner = m.subtreeOwner[cmd.RootPath]
		_, moving = m.inFlight[cmd.RootPath]
		addr := m.index[cmd.RootPath]
		m.mu.Unlock()
		if owner != 1 || moving || addr != "b:2" {
			t.Errorf("post-done state: owner=%d moving=%v addr=%q", owner, moving, addr)
		}
	}
	// Delivered commands are cleared from the pending queue.
	m.mu.Lock()
	left := len(m.transfers[0])
	m.mu.Unlock()
	if left != 0 {
		t.Error("transfers not cleared after delivery")
	}
}

func TestClusterInfo(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.handleJoin(&wire.JoinRequest{Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	info, err := m.handleClusterInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Servers) != 1 || info.Servers[0] != "a:1" {
		t.Errorf("servers = %v", info.Servers)
	}
	if len(info.Index) == 0 {
		t.Error("empty index")
	}
}

// TestCloseEndsRecoveryRetries: a recovery push to an owner slot that is
// still marked alive but refuses connections re-homes the subtree to that
// same owner, again and again. Close has stopped the failure detector that
// would end that by marking the owner dead, so Close must end it itself.
func TestCloseEndsRecoveryRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := ln.Addr().String()
	_ = ln.Close()
	w := testTree(t)
	m, err := New(w.Tree, Config{Addr: "127.0.0.1:0", Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.handleJoin(&wire.JoinRequest{Addr: gone}); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	for root := range m.subtreeOwner {
		m.recoverSubtreeLocked(root, 0, gone)
		break
	}
	m.mu.Unlock()
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return: a recovery push is still retrying against an owner that is gone")
	}
}

func TestCloseIdempotent(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Addr: "127.0.0.1:0", Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestWALRecovery(t *testing.T) {
	w := testTree(t)
	walPath := t.TempDir() + "/monitor.wal"

	m1, err := New(w.Tree, Config{Servers: 2, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.handleJoin(&wire.JoinRequest{Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	// Journal a GL update and an ownership change.
	if _, err := m1.handleGLUpdate(&wire.GLUpdateRequest{
		ServerID: 0, Op: "setattr", Entry: wire.Entry{Path: "/", Size: 42},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.handleGLUpdate(&wire.GLUpdateRequest{
		ServerID: 0, Op: "create", Entry: wire.Entry{Path: "/wal-dir", Kind: wire.EntryDir},
	}); err != nil {
		t.Fatal(err)
	}
	var someRoot string
	m1.mu.Lock()
	for root := range m1.subtreeOwner {
		someRoot = root
		break
	}
	m1.mu.Unlock()
	m1.mu.Lock()
	m1.inFlight[someRoot] = flight{dest: 1}
	m1.mu.Unlock()
	if _, err := m1.handleTransferDone(&wire.TransferDoneRequest{
		ServerID: 0, RootPath: someRoot, DestAddr: "b:2",
	}); err != nil {
		t.Fatal(err)
	}
	glv := m1.GLVersion()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart against the same (re-generated) namespace and WAL.
	w2 := testTree(t) // same seed ⇒ identical tree
	m2, err := New(w2.Tree, Config{Servers: 2, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m2.Close() }()
	if m2.GLVersion() != glv {
		t.Errorf("recovered GL version = %d, want %d", m2.GLVersion(), glv)
	}
	m2.mu.Lock()
	root := m2.glEntries["/"]
	created := m2.glEntries["/wal-dir"]
	owner := m2.subtreeOwner[someRoot]
	m2.mu.Unlock()
	if root == nil || root.Size != 42 || root.Version != 2 {
		t.Errorf("recovered root = %+v", root)
	}
	if created == nil || created.Kind != wire.EntryDir {
		t.Errorf("recovered created dir = %+v", created)
	}
	if owner != 1 {
		t.Errorf("recovered owner = %d, want 1", owner)
	}
	// The created dir must also exist in the recovered namespace tree.
	if _, err := w2.Tree.Lookup("/wal-dir"); err != nil {
		t.Errorf("recovered tree missing /wal-dir: %v", err)
	}
	// And the recovered monitor keeps journalling.
	if _, err := m2.handleJoin(&wire.JoinRequest{Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.handleGLUpdate(&wire.GLUpdateRequest{
		ServerID: 0, Op: "setattr", Entry: wire.Entry{Path: "/", Size: 43},
	}); err != nil {
		t.Fatal(err)
	}
	if m2.GLVersion() != glv+1 {
		t.Errorf("version after recovered update = %d", m2.GLVersion())
	}
}

// TestJournalDegradedLatch pins the availability-over-durability contract:
// the first failed journal append latches journalDegraded (surfaced in
// MonitorStats and heartbeat responses) and records exactly one event, and
// later failures stay silent instead of re-logging.
func TestJournalDegradedLatch(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 1, WALPath: t.TempDir() + "/mon.wal"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.handleJoin(&wire.JoinRequest{Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	// Sabotage the journal: a closed log fails every Append.
	if err := m.journal.Close(); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	m.journalLocked("owner", &walOwner{Root: "/x", Server: 0})
	first := m.journalDegraded
	m.journalLocked("owner", &walOwner{Root: "/y", Server: 0})
	m.mu.Unlock()
	if !first {
		t.Fatal("journalDegraded not latched on first append failure")
	}
	st := m.Stats()
	if !st.JournalDegraded {
		t.Error("MonitorStats does not surface JournalDegraded")
	}
	resp, err := m.handleHeartbeat(&wire.HeartbeatRequest{ServerID: 0, Addr: "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.JournalDegraded {
		t.Error("heartbeat response does not surface JournalDegraded")
	}
	events, _ := m.rec.Since(0, 0)
	logged := 0
	for _, ev := range events {
		if ev.Op == "journal_degraded" {
			logged++
		}
	}
	if logged != 1 {
		t.Errorf("journal_degraded events = %d, want exactly 1", logged)
	}
}

// TestHeartbeatCreatedPathsJournaled verifies the local-layer create delta:
// heartbeat CreatedPaths land in the authoritative tree, are journaled, and
// a restarted Monitor replays them — so a later failover push materialises
// paths born after bootstrap.
func TestHeartbeatCreatedPathsJournaled(t *testing.T) {
	w := testTree(t)
	walPath := t.TempDir() + "/mon.wal"
	m1, err := New(w.Tree, Config{Servers: 1, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.handleJoin(&wire.JoinRequest{Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.handleHeartbeat(&wire.HeartbeatRequest{
		ServerID: 0, Addr: "a:1",
		CreatedPaths: []wire.Entry{
			{Path: "/hb-born", Kind: wire.EntryDir},
			{Path: "/hb-born/f.txt", Kind: wire.EntryFile},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Tree.Lookup("/hb-born/f.txt"); err != nil {
		t.Fatalf("created path not folded into authoritative tree: %v", err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := testTree(t) // same seed ⇒ identical bootstrap tree
	m2, err := New(w2.Tree, Config{Servers: 1, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m2.Close() }()
	if _, err := w2.Tree.Lookup("/hb-born/f.txt"); err != nil {
		t.Errorf("restarted monitor lost heartbeat-created path: %v", err)
	}
}

// TestJoinAdoptsRecoveredSubtrees verifies the recovery handshake: a joiner
// claiming subtrees with no live owner keeps them (no re-push of possibly
// stale entries), while claims on roots owned by a live peer are rejected.
func TestJoinAdoptsRecoveredSubtrees(t *testing.T) {
	w := testTree(t)
	m, err := New(w.Tree, Config{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var claim string
	m.mu.Lock()
	for root, owner := range m.subtreeOwner {
		if owner == 0 {
			claim = root
			break
		}
	}
	m.mu.Unlock()
	if claim == "" {
		t.Fatal("no subtree allocated to slot 0")
	}
	resp, err := m.handleJoin(&wire.JoinRequest{
		Addr:              "a:1",
		RecoveredSubtrees: []string{claim, "/not/a/root"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.AdoptedSubtrees) != 1 || resp.AdoptedSubtrees[0] != claim {
		t.Fatalf("AdoptedSubtrees = %v, want [%s]", resp.AdoptedSubtrees, claim)
	}
	for _, st := range resp.Subtrees {
		if st[0].Path == claim {
			t.Errorf("adopted subtree %s was re-materialised in Subtrees", claim)
		}
	}

	// A second server claiming the adopted root must be refused: its owner
	// is alive elsewhere.
	resp2, err := m.handleJoin(&wire.JoinRequest{
		Addr:              "b:2",
		RecoveredSubtrees: []string{claim},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.AdoptedSubtrees) != 0 {
		t.Errorf("claim on a live peer's subtree adopted: %v", resp2.AdoptedSubtrees)
	}
	m.mu.Lock()
	owner := m.subtreeOwner[claim]
	m.mu.Unlock()
	if owner != 0 {
		t.Errorf("owner of %s = %d, want 0", claim, owner)
	}
}

// TestReevaluateDropsMigrationIDs pins "one m- ID per subtree move": a move
// dropped by a resplit must not leak its trace ID into the next, unrelated
// migration of the same root.
func TestReevaluateDropsMigrationIDs(t *testing.T) {
	r := newRig(t, Config{Servers: 2})
	m := r.m
	var root string
	var owner int
	m.mu.Lock()
	for root, owner = range m.subtreeOwner {
		break
	}
	m.mu.Unlock()
	if err := m.ScheduleTransfer(root, 1-owner); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	dropped := m.migIDs[root]
	m.mu.Unlock()
	if dropped == "" {
		t.Fatal("scheduled transfer minted no migration ID")
	}
	if err := m.ReevaluateGlobalLayer(); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	owner, still := m.subtreeOwner[root]
	if id := m.migIDs[root]; id != "" {
		t.Errorf("resplit kept migration ID %s of a dropped move", id)
	}
	m.mu.Unlock()
	if !still {
		t.Fatalf("%s is no longer a subtree root after an unchanged resplit", root)
	}
	if err := m.ScheduleTransfer(root, 1-owner); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if next := m.migIDs[root]; next == dropped {
		t.Errorf("new migration of %s reuses the dropped move's ID %s", root, dropped)
	}
}
