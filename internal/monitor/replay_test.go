package monitor

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"d2tree/internal/namespace"
	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

var replaySeeds = flag.Int("replay.seeds", 100, "seeded schedules TestReplayEqualsLive runs")

// digest renders what a restart must recover: the global layer and its
// version, the subtree owners and every namespace path. indexVer is left out:
// a join's bump is not journaled, and version continuity across a restart is
// another matter. Callers hold m.mu.
func digest(m *Monitor) string {
	var b strings.Builder
	fmt.Fprintf(&b, "glv %d\n", m.glVersion)
	for _, e := range m.glSnapshotLocked() {
		fmt.Fprintf(&b, "gl %+v\n", e)
	}
	roots := make([]string, 0, len(m.subtreeOwner))
	for root, owner := range m.subtreeOwner {
		roots = append(roots, fmt.Sprintf("owner %s %d\n", root, owner))
	}
	sort.Strings(roots)
	var paths []string
	m.tree.Walk(func(n *namespace.Node) bool {
		paths = append(paths, fmt.Sprintf("path %s %v\n", m.tree.Path(n), n.Kind()))
		return true
	})
	sort.Strings(paths)
	b.WriteString(strings.Join(roots, "") + strings.Join(paths, ""))
	return b.String()
}

// logState reads the image and the log as they stand: the number of the
// newest record they hold, and the GL version a Monitor recovered from them
// would resume at.
func logState(t *testing.T, path string) (last int, glv int64) {
	t.Helper()
	glv = 1
	if img := readImage(t, path+".img"); img != nil {
		last, glv = int(img.Horizon), img.GLVersion
	}
	err := wal.Replay(path, func(rec wal.Record) error {
		last = int(rec.Seq)
		r := recordKinds[rec.Type]()
		if err := wire.DecodePayload(rec.Data, r); err != nil {
			return err
		}
		switch r := r.(type) {
		case *wire.GLUpdateRecord:
			glv = max(glv, r.GLVersion)
		case *wire.LayerRecord:
			glv = max(glv, r.GLVersion)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return last, glv
}

// readImage decodes the Monitor's image at path, nil when there is none.
func readImage(t *testing.T, path string) *wire.MonitorImage {
	t.Helper()
	body, err := wal.ReadImage(path)
	if err != nil || body == nil {
		if err != nil {
			t.Fatal(err)
		}
		return nil
	}
	img := new(wire.MonitorImage)
	if err := wire.DecodePayload(body, img); err != nil {
		t.Fatal(err)
	}
	return img
}

// logRecord is a record of a log: its number, and the byte offset just past
// it.
type logRecord struct{ seq, end int }

// logRecords returns each whole record of a log.
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
		out = append(out, logRecord{int(seq), end})
		off = end
	}
	return out
}

// crash is a journal's files as a crash could have left them: the log, the
// image (nil before the first compaction) and its horizon.
type crash struct {
	log, img []byte
	horizon  int
}

// takeCrash copies the journal's files at path.
func takeCrash(t *testing.T, path string) crash {
	t.Helper()
	var c crash
	var err error
	if c.log, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if c.img, err = os.ReadFile(path + ".img"); os.IsNotExist(err) {
		c.img = nil
	} else if err != nil {
		t.Fatal(err)
	} else {
		c.horizon = int(readImage(t, path+".img").Horizon)
	}
	return c
}

// recoverDigest boots a fresh Monitor from c's image and the first n bytes
// of its log and returns the digest of what it recovered.
func recoverDigest(t *testing.T, tree *namespace.Tree, c crash, n, servers int) string {
	t.Helper()
	cut := filepath.Join(t.TempDir(), "cut.wal")
	if err := os.WriteFile(cut, c.log[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	if c.img != nil {
		if err := os.WriteFile(cut+".img", c.img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(tree, Config{Servers: servers, WALPath: cut})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	m.mu.Lock()
	defer m.mu.Unlock()
	return digest(m)
}

// TestReplayEqualsLive: live handlers and WAL replay make each state change
// in one place, so they cannot disagree. A seeded schedule of joins (with
// recovery claims), heartbeats (hot and created paths), GL creates and
// setattrs (rejected ones too), manual transfers acked done or failed,
// cluster_info reads and one re-evaluation runs against a journaled Monitor
// that records its state after every applied record, and compacts its log
// behind an image now and then. Fresh Monitors then recover from the image
// and the log cut at sampled record boundaries and at one torn byte offset,
// as the run left them and as they stood after a compaction, and each must
// equal the live state at that record. Along the way, every answer must
// leave with what it carries durable: when a handler returns, the image and
// the log hold every record applied so far, and its GL version. ci.sh runs
// it at -replay.seeds 1000.
func TestReplayEqualsLive(t *testing.T) {
	var snap bytes.Buffer
	if err := testTree(t).Tree.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	fresh := func() *namespace.Tree {
		tree, err := namespace.ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	for seed := int64(1); seed <= int64(*replaySeeds); seed++ {
		replaySchedule(t, fresh, seed)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

func replaySchedule(t *testing.T, fresh func() *namespace.Tree, seed int64) {
	const servers, steps = 3, 60
	rng := rand.New(rand.NewSource(seed))
	// Compactions draw on a source of their own, so the schedule of ops is
	// the one a seed ran before compactions were added to it.
	compactions := rand.New(rand.NewSource(-seed))
	walPath := filepath.Join(t.TempDir(), "mon.wal")
	tree := fresh()
	m, err := New(tree, Config{Servers: servers, HeartbeatTimeout: time.Hour, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	now := time.Unix(1000, 0)
	m.SetClock(func() time.Time { return now })
	var dirs, files []string
	tree.Walk(func(n *namespace.Node) bool {
		if n.IsDir() {
			dirs = append(dirs, tree.Path(n))
		} else {
			files = append(files, tree.Path(n))
		}
		return true
	})
	sort.Strings(dirs)
	sort.Strings(files)
	live := []string{}
	m.mu.Lock()
	m.started = now
	live = append(live, digest(m))
	m.applied = func() { live = append(live, digest(m)) }
	m.mu.Unlock()

	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	locked := func(fn func() []string) []string {
		m.mu.Lock()
		defer m.mu.Unlock()
		out := fn()
		sort.Strings(out)
		return out
	}
	roots := func() []string {
		return locked(func() (out []string) {
			for root := range m.subtreeOwner {
				out = append(out, root)
			}
			return out
		})
	}
	glPaths := func() []string {
		return locked(func() (out []string) {
			for path := range m.glEntries {
				out = append(out, path)
			}
			return out
		})
	}
	// durable holds an answer to the rule: it left with every applied record
	// in the log, and with a GL version a restart would resume at.
	durable := func(op string, glv int64) {
		t.Helper()
		records, logged := logState(t, walPath)
		if records < len(live)-1 {
			t.Fatalf("seed %d: %s answered with %d of %d applied records in the image and the log", seed, op, records, len(live)-1)
		}
		if glv > logged {
			t.Fatalf("seed %d: %s answered GL version %d; the log recovers %d", seed, op, glv, logged)
		}
	}
	joined, reevaluated := 0, false
	var cmds []wire.TransferCommand
	var crashes []crash // the files as the run went
	for step := 0; step < steps; step++ {
		switch compactions.Intn(8) {
		case 0:
			if err := m.journal.Compact(); err != nil {
				t.Fatal(err)
			}
		case 1:
			crashes = append(crashes, takeCrash(t, walPath))
		}
		now = now.Add(beat)
		name := fmt.Sprintf("r%d-%d", seed, step)
		switch op := rng.Intn(10); {
		case op == 0 && joined < servers || joined == 0:
			req := &wire.JoinRequest{Addr: addrOf(joined), RecoveredSubtrees: []string{"/not/a/root"}}
			for rs := roots(); rng.Intn(2) == 0; {
				req.RecoveredSubtrees = append(req.RecoveredSubtrees, pick(rs))
			}
			resp, err := m.handleJoin(req)
			if err != nil {
				t.Fatal(err)
			}
			joined++
			durable("join", resp.GLVersion)
		case op <= 3:
			id := rng.Intn(joined)
			req := &wire.HeartbeatRequest{ServerID: id, Addr: addrOf(id), Load: 50 * rng.Float64(), HotPaths: map[string]int64{}}
			for rng.Intn(2) == 0 {
				req.HotPaths[pick(files)] = rng.Int63n(1e6)
			}
			for i := rng.Intn(4); i > 0; i-- {
				kind := wire.EntryFile
				if rng.Intn(2) == 0 {
					kind = wire.EntryDir
				}
				req.CreatedPaths = append(req.CreatedPaths, wire.Entry{Path: fmt.Sprintf("%s/%s-%d", pick(dirs), name, i), Kind: kind})
			}
			resp, err := m.handleHeartbeat(req)
			if err != nil {
				t.Fatal(err)
			}
			cmds = append(cmds, resp.Transfers...)
			durable("heartbeat", resp.GLVersion)
		case op <= 5:
			req := &wire.GLUpdateRequest{Op: "setattr", Entry: wire.Entry{Path: pick(glPaths()), Size: rng.Int63n(1 << 20), Mode: 0o644}}
			switch rng.Intn(6) {
			case 0:
				req.Entry.Path = pick(files) // not in the GL: rejected
			case 1, 2:
				path := strings.TrimSuffix(pick(glPaths()), "/") + "/" + name
				req.Op, req.Entry = "create", wire.Entry{Path: path, Kind: wire.EntryFile}
			case 3:
				req.Op = "create" // exists: rejected
			}
			resp, err := m.handleGLUpdate(req)
			if err == nil {
				durable("gl_update", resp.GLVersion)
			}
		case op == 6:
			_ = m.ScheduleTransfer(pick(roots()), rng.Intn(servers))
		case op == 7 && len(cmds) > 0:
			k := rng.Intn(len(cmds))
			cmd := cmds[k]
			cmds = append(cmds[:k], cmds[k+1:]...)
			if rng.Intn(3) == 0 {
				_, err = m.handleTransferFailed(&wire.TransferFailedRequest{RootPath: cmd.RootPath, DestAddr: cmd.DestAddr, ReqID: cmd.ReqID})
			} else {
				_, err = m.handleTransferDone(&wire.TransferDoneRequest{RootPath: cmd.RootPath, DestAddr: cmd.DestAddr, ReqID: cmd.ReqID})
			}
			if err != nil {
				t.Fatal(err)
			}
			durable("transfer ack", 0)
		case op == 9 && !reevaluated:
			if err := m.ReevaluateGlobalLayer(); err != nil {
				t.Fatal(err)
			}
			reevaluated = true
			durable("re-evaluation", 0)
		default:
			if _, err := m.handleClusterInfo(); err != nil {
				t.Fatal(err)
			}
			durable("cluster_info", 0)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	final := takeCrash(t, walPath)
	// check recovers from c with its log cut to n bytes: the state after the
	// newest record the image or the cut log holds.
	check := func(c crash, n int, how string) {
		t.Helper()
		k := c.horizon
		for _, r := range logRecords(c.log) {
			if r.end <= n {
				k = max(k, r.seq)
			}
		}
		if got := recoverDigest(t, fresh(), c, n, servers); got != live[k] {
			t.Fatalf("seed %d: recovered from %s (%d bytes, image horizon %d) is not the live state after record %d:\nrecovered:\n%s\nlive:\n%s",
				seed, how, n, c.horizon, k, got, live[k])
		}
	}
	recs := logRecords(final.log)
	if last := final.horizon; len(recs) > 0 && recs[len(recs)-1].seq != len(live)-1 || len(recs) == 0 && last != len(live)-1 {
		t.Fatalf("seed %d: the image and the log hold %d records, the live Monitor applied %d", seed, len(recs), len(live)-1)
	}
	ends := []int{0}
	for _, r := range recs {
		ends = append(ends, r.end)
	}
	cuts := []int{0, len(ends) - 1}
	for i := 0; i < 3; i++ {
		cuts = append(cuts, rng.Intn(len(ends)))
	}
	for _, i := range cuts {
		check(final, ends[i], "a record boundary")
	}
	if len(final.log) > 0 {
		check(final, rng.Intn(len(final.log)), "a torn tail")
	}
	// And the files as they stood at one point of the run: whole, and the
	// log cut at a record boundary.
	if len(crashes) > 0 {
		c := crashes[compactions.Intn(len(crashes))]
		check(c, len(c.log), "an earlier image and log")
		if recs := logRecords(c.log); len(recs) > 0 {
			check(c, recs[compactions.Intn(len(recs))].end, "an earlier image and log cut at a record boundary")
		}
	}
}

// TestRestartAfterReevaluationRecoversTheReevaluatedLayer: a re-evaluation
// that moves the cut is journaled whole, so a restarted Monitor comes back
// with the re-evaluated global layer and owner set, not the boot layer with
// both splits' roots in it.
func TestRestartAfterReevaluationRecoversTheReevaluatedLayer(t *testing.T) {
	walPath := t.TempDir() + "/mon.wal"
	r := newRig(t, Config{Servers: 2, WALPath: walPath})
	m := r.m
	state := func(m *Monitor) (gl []wire.Entry, owners map[string]int) {
		m.mu.Lock()
		defer m.mu.Unlock()
		owners = make(map[string]int, len(m.subtreeOwner))
		for root, owner := range m.subtreeOwner {
			owners[root] = owner
		}
		return m.glSnapshotLocked(), owners
	}
	boot, _ := state(m)
	// Heat the deepest local-layer file until Tree-Splitting pulls its
	// ancestors into the global layer.
	var deep *namespace.Node
	m.tree.Walk(func(n *namespace.Node) bool {
		if deep == nil || n.Depth() > deep.Depth() {
			deep = n
		}
		return true
	})
	if _, err := m.handleHeartbeat(&wire.HeartbeatRequest{ServerID: 0, Addr: addrOf(0),
		HotPaths: map[string]int64{m.tree.Path(deep): 1 << 40}}); err != nil {
		t.Fatal(err)
	}
	if err := m.ReevaluateGlobalLayer(); err != nil {
		t.Fatal(err)
	}
	gl, owners := state(m)
	if fmt.Sprint(gl) == fmt.Sprint(boot) {
		t.Fatal("the re-evaluation left the global layer as it booted; the test needs a layer that moved")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := New(testTree(t).Tree, Config{Servers: 2, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m2.Close() }()
	gl2, owners2 := state(m2)
	if fmt.Sprint(gl2) != fmt.Sprint(gl) {
		t.Errorf("recovered global layer\n%v\nre-evaluated global layer\n%v", gl2, gl)
	}
	if fmt.Sprint(owners2) != fmt.Sprint(owners) {
		t.Errorf("recovered %d subtree owners, the re-evaluation left %d:\nrecovered %v\nlive      %v",
			len(owners2), len(owners), owners2, owners)
	}
	if m2.GLVersion() != m.GLVersion() {
		t.Errorf("recovered GL version %d, want %d", m2.GLVersion(), m.GLVersion())
	}
}
