package server_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"d2tree/internal/monitor"
	"d2tree/internal/server"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// startDurableSingle boots a 1-server cluster whose MDS journals to walDir.
func startDurableSingle(t *testing.T, walDir string) (*monitor.Monitor, *server.Server) {
	t.Helper()
	w, err := trace.BuildWorkload(trace.LMBE().Scale(400), 1600, 42)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(w.Tree, monitor.Config{
		Addr:             "127.0.0.1:0",
		Servers:          1,
		HeartbeatTimeout: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Close() })
	srv := server.New(server.Config{
		Addr:              "127.0.0.1:0",
		MonitorAddr:       mon.Addr(),
		HeartbeatInterval: 50 * time.Millisecond,
		WALDir:            walDir,
		SnapshotInterval:  150 * time.Millisecond,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return mon, srv
}

// TestClusterRestartRecoversFromWAL is the durable-restart ritual: mutations
// journaled by a server survive its death and restart. The probe's SetAttr
// size can only come from the WAL/snapshot — a monitor re-push would
// materialise the path with size 0 — so a correct answer proves the
// restarted server recovered its local layer from disk and the Monitor
// adopted the recovery claim instead of overwriting it.
func TestClusterRestartRecoversFromWAL(t *testing.T) {
	walDir := t.TempDir()
	mon, srv := startDurableSingle(t, walDir)
	c := connect(t, mon)

	st, err := c.Stats(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subtrees) == 0 {
		t.Fatal("server reports no subtrees")
	}
	probe := st.Subtrees[0] + "/durable-probe.txt"
	if _, err := c.Create(probe, wire.EntryFile); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetAttr(probe, 12345, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	eventually(t, 5*time.Second, func() error {
		if mon.Stats().Members[0].Alive {
			return fmt.Errorf("dead server still marked alive")
		}
		return nil
	})

	srv2 := server.New(server.Config{
		Addr:              "127.0.0.1:0",
		MonitorAddr:       mon.Addr(),
		HeartbeatInterval: 50 * time.Millisecond,
		WALDir:            walDir,
		SnapshotInterval:  150 * time.Millisecond,
	})
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	eventually(t, 5*time.Second, func() error {
		e, err := c.Lookup(probe)
		if err != nil {
			return err
		}
		if e.Size != 12345 {
			return fmt.Errorf("recovered size = %d, want 12345 (entry not restored from WAL)", e.Size)
		}
		return nil
	})
}

// TestClusterSnapshotTruncatesWAL checks the compaction loop: snapshots are
// taken on the configured cadence, snapshot.img lands on disk, and restart
// still recovers every journaled mutation from snapshot+tail replay.
func TestClusterSnapshotTruncatesWAL(t *testing.T) {
	walDir := t.TempDir()
	mon, srv := startDurableSingle(t, walDir)
	c := connect(t, mon)

	st, err := c.Stats(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subtrees) == 0 {
		t.Fatal("server reports no subtrees")
	}
	root := st.Subtrees[0]
	for i := 0; i < 20; i++ {
		if _, err := c.Create(fmt.Sprintf("%s/snap-%02d.txt", root, i), wire.EntryFile); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, 5*time.Second, func() error {
		st, err := c.Stats(srv.Addr())
		if err != nil {
			return err
		}
		if st.Snapshots < 1 {
			return fmt.Errorf("snapshots = %d, want >= 1", st.Snapshots)
		}
		if st.WalAppends < 20 {
			return fmt.Errorf("wal appends = %d, want >= 20", st.WalAppends)
		}
		if st.WalFlushes < 1 || st.WalFlushes > st.WalAppends {
			return fmt.Errorf("wal flushes = %d (appends %d)", st.WalFlushes, st.WalAppends)
		}
		if st.WalDegraded {
			return fmt.Errorf("wal degraded")
		}
		return nil
	})
	if _, err := os.Stat(filepath.Join(walDir, "snapshot.img")); err != nil {
		t.Fatalf("snapshot.img missing: %v", err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	eventually(t, 5*time.Second, func() error {
		if mon.Stats().Members[0].Alive {
			return fmt.Errorf("dead server still marked alive")
		}
		return nil
	})
	srv2 := server.New(server.Config{
		Addr:              "127.0.0.1:0",
		MonitorAddr:       mon.Addr(),
		HeartbeatInterval: 50 * time.Millisecond,
		WALDir:            walDir,
		SnapshotInterval:  time.Hour, // no snapshots during verification
	})
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	eventually(t, 5*time.Second, func() error {
		for i := 0; i < 20; i++ {
			if _, err := c.Lookup(fmt.Sprintf("%s/snap-%02d.txt", root, i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestClusterFailoverRedistributesSubtrees closes the failover loop: when a
// server dies mid-serving, its subtrees are pushed through the pending-pool
// re-allocation onto the survivors, entries created after bootstrap are
// preserved (via heartbeat CreatedPaths deltas), and no root ends up owned
// by two servers.
func TestClusterFailoverRedistributesSubtrees(t *testing.T) {
	mon, servers, _ := startCluster(t, 3, 600)
	c := connect(t, mon)

	var victim *server.Server
	var victimRoots []string
	for _, s := range servers {
		st, err := c.Stats(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Subtrees) > 0 {
			victim, victimRoots = s, st.Subtrees
			break
		}
	}
	if victim == nil {
		t.Fatal("no server owns a subtree")
	}
	probe := victimRoots[0] + "/failover-probe.txt"
	if _, err := c.Create(probe, wire.EntryFile); err != nil {
		t.Fatal(err)
	}
	// The create must reach the Monitor's authoritative tree (heartbeat
	// CreatedPaths delta) before the victim dies, or failover would
	// materialise the subtree without it.
	eventually(t, 3*time.Second, func() error {
		if !mon.HasPath(probe) {
			return fmt.Errorf("probe %s not yet in monitor tree", probe)
		}
		return nil
	})
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}

	survivors := make([]*server.Server, 0, len(servers)-1)
	for _, s := range servers {
		if s != victim {
			survivors = append(survivors, s)
		}
	}
	eventually(t, 10*time.Second, func() error {
		// Every root of the dead server must resolve again, including the
		// post-bootstrap probe, and be claimed by exactly one survivor.
		if _, err := c.Lookup(probe); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		claims := make(map[string]int)
		for _, s := range survivors {
			st, err := c.Stats(s.Addr())
			if err != nil {
				return err
			}
			for _, root := range st.Subtrees {
				claims[root]++
			}
		}
		for _, root := range victimRoots {
			switch n := claims[root]; {
			case n == 0:
				return fmt.Errorf("subtree %s not recovered onto any survivor", root)
			case n > 1:
				return fmt.Errorf("subtree %s owned by %d servers", root, n)
			}
			if _, err := c.Lookup(root); err != nil {
				return fmt.Errorf("lookup %s: %w", root, err)
			}
		}
		return nil
	})
}
