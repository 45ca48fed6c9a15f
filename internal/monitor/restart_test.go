package monitor

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"d2tree/internal/namespace"
	"d2tree/internal/trace"
	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// restartTail is how many GL writes BenchmarkMonitorRestart commits after
// its compaction: the log a restart reads.
const restartTail = 1000

// writeGL commits n global-layer setattrs on m, as glUpdateLocked commits
// them, in windows of at most 10k records, each waited on before the next.
func writeGL(m *Monitor, n int) {
	m.mu.Lock()
	paths := make([]string, 0, len(m.glEntries))
	for path := range m.glEntries {
		paths = append(paths, path)
	}
	m.mu.Unlock()
	slices.Sort(paths)
	for done := 0; done < n; {
		m.mu.Lock()
		for end := min(n, done+10_000); done < end; done++ {
			e := *m.glEntries[paths[done%len(paths)]]
			e.Size, e.Version = int64(done), e.Version+1
			m.journal.Commit(&wire.GLUpdateRecord{Op: "setattr", Entry: e, GLVersion: m.glVersion + 1})
		}
		tail := m.tail
		m.mu.Unlock()
		m.journal.Wait(tail)
	}
}

// BenchmarkMonitorRestart restarts a Monitor over an 800-node DTR namespace
// and 2 servers after 10k and after 1M global-layer writes: each case
// commits the writes, compacts once through the journal, commits a 1k-write
// tail, and times New on the image and the log. It reports the restart in
// ms, the log's and the image's bytes, and the log's records: the entries of
// the offset index New builds. Without compaction the restart replayed every
// write, and all four grew with the writes.
func BenchmarkMonitorRestart(b *testing.B) {
	w, err := trace.BuildWorkload(trace.DTR().Scale(800), 4000, 3)
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := w.Tree.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	fresh := func() *namespace.Tree {
		tree, err := namespace.ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		return tree
	}
	for _, writes := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("writes=%d", writes), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "mon.wal")
			cfg := Config{Servers: 2, WALPath: path}
			m, err := New(fresh(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			writeGL(m, writes)
			if err := m.journal.Compact(); err != nil {
				b.Fatal(err)
			}
			writeGL(m, restartTail)
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
			var took time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree := fresh()
				start := time.Now()
				r, err := New(tree, cfg)
				took += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && r.GLVersion() != int64(1+writes+restartTail) {
					b.Fatalf("restarted at GL version %d, want %d", r.GLVersion(), 1+writes+restartTail)
				}
				_ = r.Close()
			}
			b.StopTimer()
			records := 0
			if err := wal.Replay(path, func(wal.Record) error { records++; return nil }); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(took.Microseconds())/1000/float64(b.N), "restart-ms")
			b.ReportMetric(float64(fileSize(b, path)), "log-bytes")
			b.ReportMetric(float64(fileSize(b, path+".img")), "image-bytes")
			b.ReportMetric(float64(records), "index-entries")
		})
	}
}

func fileSize(b *testing.B, path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return fi.Size()
}

// TestFailedImageWriteKeepsTheOldState: a compaction whose image write
// fails (its temporary file is /dev/full, so every write returns ENOSPC)
// fails and changes nothing on disk: the image in place stays, the log is
// not truncated behind it, and a restart recovers what the Monitor held.
func TestFailedImageWriteKeepsTheOldState(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	path := filepath.Join(t.TempDir(), "mon.wal")
	m := newRig(t, Config{Servers: 2, WALPath: path}).m
	writeGL(m, 50)
	if err := m.journal.Compact(); err != nil {
		t.Fatal(err)
	}
	writeGL(m, 20)
	if _, err := m.handleHeartbeat(&wire.HeartbeatRequest{ServerID: 0, Addr: addrOf(0),
		CreatedPaths: []wire.Entry{{Path: "/after/the/image", Kind: wire.EntryFile}}}); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		t.Helper()
		// Lstat first: a failed write renamed into place would be the
		// symlink, and reading /dev/full never ends.
		if fi, err := os.Lstat(path); err != nil || !fi.Mode().IsRegular() {
			t.Fatalf("%s: %v, %v", path, fi, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	image, log := read(path+".img"), read(path)
	if err := os.Symlink("/dev/full", path+".img.tmp"); err != nil {
		t.Fatal(err)
	}
	if err := m.journal.Compact(); err == nil {
		t.Fatal("a compaction whose image write failed reported success")
	}
	if !bytes.Equal(read(path+".img"), image) || !bytes.Equal(read(path), log) {
		t.Fatal("the failed compaction changed the image or the log")
	}
	if _, err := os.Lstat(path + ".img.tmp"); !os.IsNotExist(err) {
		t.Fatalf("the temporary image is left behind (%v)", err)
	}
	m.mu.Lock()
	want := digest(m)
	m.mu.Unlock()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := New(testTree(t).Tree, Config{Servers: 2, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	r.mu.Lock()
	defer r.mu.Unlock()
	if got := digest(r); got != want {
		t.Fatalf("recovered\n%s\nthe Monitor held\n%s", got, want)
	}
}

// TestParentMonitorLogRecovers: an image and a JSON-era log the parent wrote
// (testdata/parent-wal), the log holding global-layer creates and setattrs,
// an owner change, local-layer paths and a re-evaluated layer past the
// image, recover to the state the parent held (digest.txt). The recovery
// leaves the log in the current format, and a reopen reaches the same
// state; so does the upgraded image beside the JSON log, which a crash
// before the log's rewrite leaves.
func TestParentMonitorLogRecovers(t *testing.T) {
	src := filepath.Join("testdata", "parent-wal")
	path := filepath.Join(t.TempDir(), "monitor.wal")
	copyIn := func(name string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(filepath.Dir(path), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join(src, "digest.txt"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		m, err := New(testTree(t).Tree, Config{Servers: 2, WALPath: path})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		m.mu.Lock()
		got := digest(m)
		m.mu.Unlock()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("%s recovered\n%.3000s\nthe parent held\n%.3000s", what, got, want)
		}
		if log, err := os.ReadFile(path); err != nil || len(log) == 0 || log[0] != 1 {
			t.Fatalf("%s: the log is not in the current format afterwards (%v)", what, err)
		}
	}
	copyIn("monitor.wal")
	copyIn("monitor.wal.img")
	check("the parent's files")
	check("a reopen")
	copyIn("monitor.wal")
	check("the upgraded image beside the JSON log")
}
