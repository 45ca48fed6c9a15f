package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"d2tree/internal/monitor"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// BenchmarkMDSRestart: one MDS, joined alone to a Monitor over an LMBE
// namespace of 20k or 200k nodes, so it holds every local-layer entry, logs
// one record and writes a snapshot, and a fresh server recovers from its data
// directory. It reports the snapshot's bytes (every file but the log), the
// write, how long the write held s.mu, and the recovery, in ms per iteration.
// For numbers: -bench MDSRestart -benchtime 5x.
func BenchmarkMDSRestart(b *testing.B) {
	for _, size := range []int{20000, 200000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			w, err := trace.BuildWorkload(trace.LMBE().Scale(size), size, 1)
			if err != nil {
				b.Fatal(err)
			}
			mon, err := monitor.New(w.Tree, monitor.Config{Addr: "127.0.0.1:0", Servers: 1, HeartbeatTimeout: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			if err := mon.Start(); err != nil {
				b.Fatal(err)
			}
			defer func() { _ = mon.Close() }()
			conn, err := wire.DialCall(mon.Addr(), time.Second, time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			var join wire.JoinResponse
			if err := conn.Call(wire.TypeJoin, &wire.JoinRequest{Addr: "10.0.0.1:1"}, &join); err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			s := newDurableServer(b, dir)
			s.mu.Lock()
			s.applyJoinLocked(&join)
			tail := s.journal.Tail()
			entries, roots := s.store.len(), len(s.subtrees)
			s.mu.Unlock()
			s.waitDurable(tail)

			var write, held, recovery time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One record, so that the compaction is not an idle one.
				s.mu.Lock()
				s.journal.Commit(&wire.SetAttrRecord{Entry: wire.Entry{Path: join.Trees[0].Path, Kind: wire.EntryDir, Version: int64(i + 2)}})
				s.mu.Unlock()
				start := time.Now()
				held += lockHold(&s.mu, func() {
					if err := s.writeSnapshot(); err != nil {
						b.Fatal(err)
					}
				})
				write += time.Since(start)
				start = time.Now()
				r := New(Config{WALDir: dir})
				if err := r.recoverFromDisk(); err != nil {
					b.Fatal(err)
				}
				recovery += time.Since(start)
				if got := r.store.len(); got != entries-len(join.GlobalLayer) {
					b.Fatalf("recovered %d entries of %d", got, entries-len(join.GlobalLayer))
				}
			}
			b.StopTimer()
			ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 / float64(b.N) }
			b.ReportMetric(float64(snapshotBytes(b, dir)), "snapshot-bytes")
			b.ReportMetric(ms(write), "write-ms")
			b.ReportMetric(ms(held), "mu-held-ms")
			b.ReportMetric(ms(recovery), "recover-ms")
			b.ReportMetric(float64(entries-len(join.GlobalLayer)), "entries")
			b.ReportMetric(float64(roots), "roots")
		})
	}
}

// lockHold runs fn and returns the longest stretch during it in which mu
// could not be write-locked: how long fn held it.
func lockHold(mu *sync.RWMutex, fn func()) time.Duration {
	done := make(chan struct{})
	var longest time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		free := time.Now()
		for {
			select {
			case <-done:
				return
			default:
			}
			if mu.TryLock() {
				mu.Unlock()
				free = time.Now()
			} else if d := time.Since(free); d > longest {
				longest = d
			}
		}
	}()
	fn()
	close(done)
	wg.Wait()
	return longest
}

// snapshotBytes sums the sizes of the files in dir other than the log.
func snapshotBytes(b *testing.B, dir string) int64 {
	files, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, f := range files {
		if f.Name() == "mds.wal" {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, f.Name()))
		if err != nil {
			b.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestBadCreatesLeaveTheServerRestartable: creates of a path with an empty
// name (/r//x), of one with a trailing slash (/r/x/) and of one under a file
// (/r/f/x) are refused, so a snapshot taken after them is an image the
// server reads back to the state it held, and the Monitor, which files a
// create under its own tree, never sees one its tree refuses.
func TestBadCreatesLeaveTheServerRestartable(t *testing.T) {
	dir := t.TempDir()
	s := newDurableServer(t, dir)
	env := &wire.Envelope{}
	if _, err := s.handleInstall(env, &wire.InstallRequest{Tree: tree("/r", []wire.Entry{
		{Path: "/r", Kind: wire.EntryDir, Version: 1},
		{Path: "/r/f", Kind: wire.EntryFile, Version: 1},
	})}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/r//x", "/r/x/", "/r/f/x"} {
		if _, err := s.handleCreate(env, &wire.CreateRequest{Path: path, Kind: wire.EntryFile}); err == nil {
			t.Errorf("create %s was acked", path)
		}
	}
	if err := s.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	want := localDigest(s)
	s.mu.RUnlock()
	if got := recoveredDigest(t, dir); got != want {
		t.Fatalf("restarted with\n%s\nthe server held\n%s", got, want)
	}
}
