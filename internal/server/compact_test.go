package server

import (
	"fmt"
	"sync"
	"testing"

	"d2tree/internal/wire"
)

// installed opens a server journaling to dir that owns /r, holding dirs
// directories under it of files files each, and returns it.
func installed(t *testing.T, dir string, dirs, files int) *Server {
	t.Helper()
	s := newDurableServer(t, dir)
	entries := []wire.Entry{{Path: "/r", Kind: wire.EntryDir, Version: 1}}
	for d := 0; d < dirs; d++ {
		entries = append(entries, wire.Entry{Path: fmt.Sprintf("/r/d%d", d), Kind: wire.EntryDir, Version: 1})
		for f := 0; f < files; f++ {
			entries = append(entries, wire.Entry{Path: fmt.Sprintf("/r/d%d/f%d", d, f), Kind: wire.EntryFile, Size: int64(f), Version: 1})
		}
	}
	if _, err := s.handleInstall(&wire.Envelope{}, &wire.InstallRequest{Tree: tree("/r", entries)}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompactionBesideCommits: creates, setattrs and renames from several
// goroutines commit while another compacts in a loop. A server recovered
// from the data directory afterwards equals the live local layer.
func TestCompactionBesideCommits(t *testing.T) {
	dir := t.TempDir()
	const writers, ops = 4, 150
	s := installed(t, dir, writers, 10)
	env := &wire.Envelope{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				var err error
				switch path := fmt.Sprintf("/r/d%d/n%d", w, i); i % 3 {
				case 0:
					_, err = s.handleCreate(env, &wire.CreateRequest{Path: path, Kind: wire.EntryFile})
				case 1:
					_, err = s.handleSetAttr(env, &wire.SetAttrRequest{Path: fmt.Sprintf("/r/d%d/n%d", w, i-1), Size: int64(i), Mode: 0o600})
				default:
					_, err = s.handleRename(&wire.RenameRequest{Path: fmt.Sprintf("/r/d%d/n%d", w, i-2), NewName: fmt.Sprintf("m%d", i)})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		for {
			if err := s.writeSnapshot(); err != nil {
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
	if _, _, n := s.journal.Stats(); n < 2 {
		t.Errorf("%d compactions ran beside the commits, want at least 2", n)
	}
	s.mu.RLock()
	live := localDigest(s)
	s.mu.RUnlock()
	s.closeJournal()
	if got := recoveredDigest(t, dir); got != live {
		t.Fatalf("recovery gave\n%.2000s\nthe server held\n%.2000s", got, live)
	}
}
