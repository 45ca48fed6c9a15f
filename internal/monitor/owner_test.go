package monitor

import (
	"net"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"d2tree/internal/wire"
)

func idle(int) float64 { return 0 }

// rootsOf lists the subtree roots slot id owns, sorted.
func rootsOf(t *testing.T, m *Monitor, id int) []string {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var roots []string
	for root, owner := range m.subtreeOwner {
		if owner == id {
			roots = append(roots, root)
		}
	}
	slices.Sort(roots)
	if len(roots) < 2 {
		t.Fatalf("mds-%d owns %d subtrees, need at least 2", id, len(roots))
	}
	return roots
}

// abandonTransfer schedules a move of root, one of slot 0's, to slot dest,
// issues it on the next beat and beats every member for 4 s, past the
// heartbeat timeout: reissueStaleLocked abandons the command, so a done for
// it comes late.
func (r *rig) abandonTransfer(root string, dest int) {
	r.t.Helper()
	if err := r.m.ScheduleTransfer(root, dest); err != nil {
		r.t.Fatal(err)
	}
	if cmds := r.round(idle); len(cmds) != 1 || cmds[0].RootPath != root || cmds[0].DestAddr != addrOf(dest) {
		r.t.Fatalf("issued %+v, want one command moving %s to %s", cmds, root, addrOf(dest))
	}
	for i := 0; i < 40; i++ {
		r.round(idle)
	}
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	if _, moving := r.m.inFlight[root]; moving || r.m.nTransfersReissued == 0 {
		r.t.Fatalf("command for %s not abandoned (in flight %v, reissued %d)", root, moving, r.m.nTransfersReissued)
	}
}

// routed is root's committed owner and the address the index routes it to.
func routed(m *Monitor, root string) (int, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.subtreeOwner[root], m.index[root]
}

// TestLateTransferDoneCommitsThroughTheJournal: a done that arrives after its
// command was abandoned still names the only copy of the root, at the
// destination. It commits that destination through the journal, so the owner
// and the index agree, a restarted Monitor reads the same owner, and the
// source's slot rejoining does not get the root routed back to it.
func TestLateTransferDoneCommitsThroughTheJournal(t *testing.T) {
	cfg := Config{Servers: 3, HeartbeatTimeout: time.Second, WALPath: filepath.Join(t.TempDir(), "monitor.wal")}
	r := newRig(t, cfg)
	root := rootsOf(t, r.m, 0)[0]
	r.abandonTransfer(root, 1)

	resp, err := r.m.handleTransferDone(&wire.TransferDoneRequest{ServerID: 0, RootPath: root, DestAddr: addrOf(1)})
	if err != nil || !resp.Granted {
		t.Fatalf("late done: %+v, %v; want granted", resp, err)
	}
	if owner, addr := routed(r.m, root); owner != 1 || addr != addrOf(1) {
		t.Fatalf("after the late done %s is owned by mds-%d and routed to %q, want mds-1 at %s", root, owner, addr, addrOf(1))
	}
	if err := r.m.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := New(testTree(t).Tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if owner, _ := routed(m, root); owner != 1 {
		t.Fatalf("restarted Monitor reads %s as owned by mds-%d, want mds-1", root, owner)
	}
	// The source rejoins first and takes slot 0 again.
	join, err := m.handleJoin(&wire.JoinRequest{Addr: addrOf(0)})
	if err != nil {
		t.Fatal(err)
	}
	if join.ServerID != 0 || join.Index[root] == addrOf(0) {
		t.Fatalf("rejoined source got slot %d and %s routed to %q", join.ServerID, root, join.Index[root])
	}
	if join, err = m.handleJoin(&wire.JoinRequest{Addr: addrOf(1)}); err != nil {
		t.Fatal(err)
	}
	if join.Index[root] != addrOf(1) {
		t.Fatalf("after mds-1 rejoined, %s is routed to %q, want %s", root, join.Index[root], addrOf(1))
	}
}

// TestTransferDoneSettlesOnlyItsOwnFlight: a root whose command to B was
// abandoned is re-planned to C. The late done naming B commits B, cancels the
// flight to C and drops its queued command, whose source no longer holds the
// root. A late NACK naming B leaves a flight to C alone.
func TestTransferDoneSettlesOnlyItsOwnFlight(t *testing.T) {
	r := newRig(t, Config{Servers: 3, HeartbeatTimeout: time.Second})
	m := r.m
	roots := rootsOf(t, m, 0)
	late, nacked := roots[0], roots[1]
	queued := func(root string) bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return slices.ContainsFunc(m.transfers[0], func(c wire.TransferCommand) bool { return c.RootPath == root })
	}
	flightTo := func(root string) int {
		m.mu.Lock()
		defer m.mu.Unlock()
		if f, moving := m.inFlight[root]; moving {
			return f.dest
		}
		return -1
	}

	r.abandonTransfer(late, 1)
	if err := m.ScheduleTransfer(late, 2); err != nil {
		t.Fatal(err)
	}
	resp, err := m.handleTransferDone(&wire.TransferDoneRequest{ServerID: 0, RootPath: late, DestAddr: addrOf(1)})
	if err != nil || !resp.Granted {
		t.Fatalf("late done: %+v, %v; want granted", resp, err)
	}
	if owner, addr := routed(m, late); owner != 1 || addr != addrOf(1) {
		t.Errorf("late done naming mds-1: %s owned by mds-%d, routed to %q", late, owner, addr)
	}
	if dest := flightTo(late); dest >= 0 || queued(late) {
		t.Errorf("after the late done committed mds-1: flight to %d (-1: none), command queued %v", dest, queued(late))
	}

	r.abandonTransfer(nacked, 1)
	if err := m.ScheduleTransfer(nacked, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.handleTransferFailed(&wire.TransferFailedRequest{ServerID: 0, RootPath: nacked, DestAddr: addrOf(1), Reason: "refused"}); err != nil {
		t.Fatal(err)
	}
	if dest := flightTo(nacked); dest != 2 || !queued(nacked) {
		t.Errorf("NACK naming mds-1 settled the flight to mds-2: flight to %d, queued %v", dest, queued(nacked))
	}
	if cmds := r.round(idle); len(cmds) != 1 || cmds[0].RootPath != nacked || cmds[0].DestAddr != addrOf(2) {
		t.Errorf("next beat issued %+v, want the move of %s to %s", cmds, nacked, addrOf(2))
	}
}

// fakeMDS answers every request, installs included, once gate is closed.
func fakeMDS(t *testing.T, gate <-chan struct{}) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go wire.Serve(nc, func(*wire.Envelope) (interface{}, error) {
				<-gate
				return &wire.LockResponse{Granted: true}, nil
			})
		}
	}()
	return ln.Addr().String()
}

// TestLateDoneLosesToARecoveryPush: a source that stops beating while it
// ships has its command abandoned and is declared dead in one failure pass,
// which starts a recovery push of the root. The source's done, arriving while
// the push is in flight, is refused and the push commits; a done naming the
// owner it committed is a duplicate, granted without a change.
func TestLateDoneLosesToARecoveryPush(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	addrs := []string{"a:1", fakeMDS(t, gate), fakeMDS(t, gate)}
	m, err := New(testTree(t).Tree, Config{Servers: 3, HeartbeatTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { open(); _ = m.Close() }()
	now := time.Unix(1000, 0)
	m.SetClock(func() time.Time { return now })
	for _, addr := range addrs {
		if _, err := m.handleJoin(&wire.JoinRequest{Addr: addr}); err != nil {
			t.Fatal(err)
		}
	}
	beat := func(id int) *wire.HeartbeatResponse {
		resp, err := m.handleHeartbeat(&wire.HeartbeatRequest{ServerID: id, Addr: addrs[id]})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	root := rootsOf(t, m, 0)[0]
	if err := m.ScheduleTransfer(root, 1); err != nil {
		t.Fatal(err)
	}
	if cmds := beat(0).Transfers; len(cmds) != 1 || cmds[0].RootPath != root {
		t.Fatalf("issued %+v, want the move of %s", cmds, root)
	}
	// mds-0 ships and beats no more; the others beat on.
	now = now.Add(500 * time.Millisecond)
	beat(1)
	beat(2)
	now = now.Add(600 * time.Millisecond)
	beat(1)
	m.mu.Lock()
	f, moving := m.inFlight[root]
	dead, reissued := !m.members[0].alive, m.nTransfersReissued
	m.mu.Unlock()
	if !dead || reissued != 1 || !moving || !f.push {
		t.Fatalf("one failure pass: mds-0 dead %v, reissued %d, %s in flight %v (push %v)", dead, reissued, root, moving, f.push)
	}

	resp, err := m.handleTransferDone(&wire.TransferDoneRequest{ServerID: 0, RootPath: root, DestAddr: addrs[1]})
	if err != nil || resp.Granted {
		t.Fatalf("done racing a recovery push: %+v, %v; want refused", resp, err)
	}
	if owner, addr := routed(m, root); owner != 0 || addr == addrs[1] {
		t.Fatalf("refused done moved %s to mds-%d at %q", root, owner, addr)
	}
	// Every push of mds-0's roots ends before the duplicate is measured.
	open()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		m.mu.Lock()
		pushing := len(m.inFlight)
		m.mu.Unlock()
		if pushing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d recovery pushes still in flight", pushing)
		}
	}
	if owner, addr := routed(m, root); owner != f.dest || addr != addrs[f.dest] {
		t.Fatalf("recovery push of %s to mds-%d: owned by mds-%d, routed to %q", root, f.dest, owner, addr)
	}

	before := m.Stats()
	resp, err = m.handleTransferDone(&wire.TransferDoneRequest{ServerID: 0, RootPath: root, DestAddr: addrs[f.dest]})
	if err != nil || !resp.Granted {
		t.Fatalf("duplicate done: %+v, %v; want granted", resp, err)
	}
	after := m.Stats()
	if owner, addr := routed(m, root); owner != f.dest || addr != addrs[f.dest] ||
		after.IndexVer != before.IndexVer || after.TransfersDone != before.TransfersDone {
		t.Errorf("duplicate done changed something: owner mds-%d at %q, index version %d -> %d, done %d -> %d",
			owner, addr, before.IndexVer, after.IndexVer, before.TransfersDone, after.TransfersDone)
	}
}
