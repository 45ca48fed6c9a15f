package monitor

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"d2tree/internal/namespace"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// freshTrees returns a function that reads a new copy of w's tree each call,
// for a Monitor to boot on as the first one did.
func freshTrees(t testing.TB, w *trace.Workload) func() *namespace.Tree {
	t.Helper()
	var snap bytes.Buffer
	if err := w.Tree.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	return func() *namespace.Tree {
		tree, err := namespace.ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
}

// recoveredMonitorDigest closes m, boots a Monitor on a fresh tree from the
// journal m left under cfg, and returns the digest of what it recovered.
func recoveredMonitorDigest(t *testing.T, m *Monitor, tree *namespace.Tree, cfg Config) string {
	t.Helper()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := New(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	r.mu.Lock()
	defer r.mu.Unlock()
	return digest(r)
}

// TestCompactionBesideCommits: GL setattrs and creates from several
// goroutines, heartbeats folding created paths into the tree and
// re-evaluations of the global layer all commit while another goroutine
// compacts in a loop. A Monitor recovered from the journal afterwards equals
// the live one.
func TestCompactionBesideCommits(t *testing.T) {
	fresh := freshTrees(t, testTree(t))
	cfg := Config{Servers: 2, HeartbeatTimeout: time.Hour, WALPath: filepath.Join(t.TempDir(), "mon.wal")}
	m, err := New(fresh(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if _, err := m.handleJoin(&wire.JoinRequest{Addr: addrOf(0)}); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	var gl, dirs []string
	for path, e := range m.glEntries {
		gl = append(gl, path)
		if e.Kind == wire.EntryDir {
			dirs = append(dirs, path)
		}
	}
	m.mu.Unlock()

	const writers, ops = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				req := &wire.GLUpdateRequest{Op: "setattr", Entry: wire.Entry{Path: gl[(w*ops+i)%len(gl)], Size: int64(i), Mode: 0o644}}
				if i%5 == 0 {
					req.Op, req.Entry = "create", wire.Entry{Path: fmt.Sprintf("%s/w%d-%d", dirs[i%len(dirs)], w, i), Kind: wire.EntryFile}
				}
				_, _ = m.handleGLUpdate(req) // a path a re-evaluation demoted is refused
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			req := &wire.HeartbeatRequest{ServerID: 0, Addr: addrOf(0),
				CreatedPaths: []wire.Entry{{Path: fmt.Sprintf("%s/hb-%d", dirs[i%len(dirs)], i), Kind: wire.EntryDir}}}
			if _, err := m.handleHeartbeat(req); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				if err := m.ReevaluateGlobalLayer(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	stop := make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		for {
			if err := m.journal.Compact(); err != nil {
				compacted <- err
				return
			}
			select {
			case <-stop:
				compacted <- nil
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	if _, _, n := m.journal.Stats(); n < 2 {
		t.Errorf("%d compactions ran beside the commits, want at least 2", n)
	}
	m.mu.Lock()
	live := digest(m)
	m.mu.Unlock()
	if got := recoveredMonitorDigest(t, m, fresh(), cfg); got != live {
		t.Fatalf("recovery gave\n%.2000s\nthe Monitor held\n%.2000s", got, live)
	}
}
