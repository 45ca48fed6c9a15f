package server

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"d2tree/internal/wire"
)

// newDurableServer opens a server that journals to dir, recovering whatever
// dir holds. It never joins a cluster: its Addr is "", which an index entry
// names to route a root to it.
func newDurableServer(t testing.TB, dir string) *Server {
	t.Helper()
	s := New(Config{Addr: "127.0.0.1:0", MonitorAddr: "unused", WALDir: dir})
	if err := s.openJournal(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.closeJournal)
	return s
}

// localDigest renders the journaled state, what a restart must recover: the
// owned subtree roots and every local-layer entry. Callers hold s.mu.
func localDigest(s *Server) string {
	var lines []string
	for root := range s.subtrees {
		lines = append(lines, "root "+root)
	}
	s.store.walk("/", func(e *wire.Entry, gl bool) {
		if !gl {
			// Kinds as numbers, as testdata/parent-datadir/digest.txt has them.
			lines = append(lines, fmt.Sprintf("entry {Path:%s Kind:%d Size:%d Mode:%d Version:%d}", e.Path, e.Kind, e.Size, e.Mode, e.Version))
		}
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// recoveredDigest is the localDigest of a server recovered from dir.
func recoveredDigest(t testing.TB, dir string) string {
	t.Helper()
	r := New(Config{WALDir: dir})
	if err := r.recoverFromDisk(); err != nil {
		t.Fatal(err)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return localDigest(r)
}

// TestSnapshotHorizonCoversItsImage: a create under /r/a and the rename of
// /r/a to /r/b are applied while an earlier record's fsync is in flight, and
// a snapshot lands before either is flushed. Its image holds both, so its
// horizon must be past both: a record replayed over an image that already
// holds it is not a no-op here (the create comes back as a ghost /r/a/x that
// the rename, replayed next, no longer finds). The race is not forced, so each
// of the 200 rounds may or may not open that window; every round must recover
// what the server held.
func TestSnapshotHorizonCoversItsImage(t *testing.T) {
	const rounds = 200
	env := &wire.Envelope{}
	bad := 0
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		s := newDurableServer(t, dir)
		if _, err := s.handleInstall(env, &wire.InstallRequest{Tree: tree("/r", []wire.Entry{
			{Path: "/r", Kind: wire.EntryDir, Version: 1},
			{Path: "/r/a", Kind: wire.EntryDir, Version: 1},
		})}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		run := func(fn func() error, path string) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := fn(); err != nil {
					t.Error(err)
				}
			}()
			for {
				s.mu.RLock()
				e, _ := s.store.entry(path)
				s.mu.RUnlock()
				if e != nil {
					return
				}
				runtime.Gosched()
			}
		}
		create := func(path string) func() error {
			return func() error {
				_, err := s.handleCreate(env, &wire.CreateRequest{Path: path, Kind: wire.EntryFile})
				return err
			}
		}
		run(create("/r/filler"), "/r/filler")
		run(create("/r/a/x"), "/r/a/x")
		run(func() error {
			_, err := s.handleRename(&wire.RenameRequest{Path: "/r/a", NewName: "b"})
			return err
		}, "/r/b")
		if err := s.writeSnapshot(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		s.mu.RLock()
		live := localDigest(s)
		s.mu.RUnlock()
		s.closeJournal()
		if got := recoveredDigest(t, dir); got != live {
			if bad == 0 {
				t.Logf("round %d recovered\n%s\nthe server held\n%s", round, got, live)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d rounds recovered a state the server never held", bad, rounds)
	}
}

// TestRestartNumbersPastTheSnapshot: a snapshot that covers every record
// truncates the log to nothing the image does not hold. A server restarted on
// that directory must still number its next record past the snapshot's
// horizon, or the recovery after it skips the record as one the image holds.
func TestRestartNumbersPastTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	env := &wire.Envelope{}
	s := newDurableServer(t, dir)
	if _, err := s.handleInstall(env, &wire.InstallRequest{Tree: tree("/r", []wire.Entry{{Path: "/r", Kind: wire.EntryDir, Version: 1}})}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.handleCreate(env, &wire.CreateRequest{Path: "/r/before", Kind: wire.EntryFile}); err != nil {
		t.Fatal(err)
	}
	if err := s.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	s.closeJournal()

	s = newDurableServer(t, dir)
	s.index.Set("/r", s.Addr())
	if _, err := s.handleCreate(env, &wire.CreateRequest{Path: "/r/after", Kind: wire.EntryFile}); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	live := localDigest(s)
	s.mu.RUnlock()
	s.closeJournal()
	if got := recoveredDigest(t, dir); got != live {
		t.Fatalf("the second restart recovered\n%s\nthe server held\n%s", got, live)
	}
}
