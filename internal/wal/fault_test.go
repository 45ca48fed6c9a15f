package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// faultFile wraps the log's file with programmable failures so tests can
// exercise the append rollback and poisoning paths.
type faultFile struct {
	f *os.File

	failWrite    bool // next Write errors after writing a prefix
	shortN       int  // bytes the failing Write still lands (torn write)
	failSync     bool // next Sync errors
	failTruncate bool // every Truncate errors (forces poisoning)
	reads        int  // Read calls made
}

var errInjected = errors.New("injected fault")

func (w *faultFile) Write(p []byte) (int, error) {
	if w.failWrite {
		w.failWrite = false
		n := w.shortN
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			if _, err := w.f.Write(p[:n]); err != nil {
				return 0, err
			}
		}
		return n, errInjected
	}
	return w.f.Write(p)
}

func (w *faultFile) Read(p []byte) (int, error) {
	w.reads++
	return w.f.Read(p)
}
func (w *faultFile) Seek(o int64, wh int) (int64, error) { return w.f.Seek(o, wh) }
func (w *faultFile) Close() error                        { return w.f.Close() }

func (w *faultFile) Sync() error {
	if w.failSync {
		w.failSync = false
		return errInjected
	}
	return w.f.Sync()
}

func (w *faultFile) Truncate(size int64) error {
	if w.failTruncate {
		return errInjected
	}
	return w.f.Truncate(size)
}

// faultLog opens a real log then reroutes its file through a faultFile.
func faultLog(t *testing.T) (*Log, *faultFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fault.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultFile{f: l.f.(*os.File)}
	l.f = ff
	t.Cleanup(func() { _ = l.Close() })
	return l, ff, path
}

func replayAll(t *testing.T, path string) []Record {
	t.Helper()
	var recs []Record
	if err := Replay(path, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestAppendTornWriteRollsBack is the regression for the original
// corruption: a failed Write used to leave torn bytes at the tail AND keep
// the incremented seq, so the next append landed a valid record beyond a
// region replay can never cross.
func TestAppendTornWriteRollsBack(t *testing.T) {
	l, ff, path := faultLog(t)
	if _, err := l.Append("a", &testPayload{N: 1}); err != nil {
		t.Fatal(err)
	}

	ff.failWrite = true
	ff.shortN = 5 // torn: a few header bytes land, then the write errors
	if _, err := l.Append("b", &testPayload{N: 2}); !errors.Is(err, errInjected) {
		t.Fatalf("want injected error, got %v", err)
	}

	// seq must have rolled back: the next append reuses seq 2.
	seq, err := l.Append("c", &testPayload{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Errorf("seq after failed append = %d, want 2 (rolled back)", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay must reach BOTH records — nothing stranded behind torn bytes.
	recs := replayAll(t, path)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2: %+v", len(recs), recs)
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Errorf("seqs = %d,%d want 1,2", recs[0].Seq, recs[1].Seq)
	}
	if recs[1].Type != "c" {
		t.Errorf("record 2 type = %q, want %q (the post-failure append)", recs[1].Type, "c")
	}
}

// TestAppendSyncFailureRollsBack: a failed fsync means the bytes were never
// acknowledged durable; they must be truncated away and the seq reused.
func TestAppendSyncFailureRollsBack(t *testing.T) {
	l, ff, path := faultLog(t)
	if _, err := l.Append("a", nil); err != nil {
		t.Fatal(err)
	}
	ff.failSync = true
	if _, err := l.Append("b", nil); !errors.Is(err, errInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	seq, err := l.Append("c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Errorf("seq = %d, want 2", seq)
	}
	_ = l.Close()
	recs := replayAll(t, path)
	if len(recs) != 2 || recs[1].Type != "c" {
		t.Fatalf("replayed %+v, want [a c]", recs)
	}
}

// TestAppendPoisonsWhenRollbackFails: if the truncate after a failed write
// also fails, the tail state is unknown and every further append must be
// refused with ErrPoisoned instead of compounding the damage.
func TestAppendPoisonsWhenRollbackFails(t *testing.T) {
	l, ff, _ := faultLog(t)
	if _, err := l.Append("a", nil); err != nil {
		t.Fatal(err)
	}
	ff.failWrite = true
	ff.shortN = 3
	ff.failTruncate = true
	if _, err := l.Append("b", nil); !errors.Is(err, errInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append("c", nil); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("append %d after failed rollback: want ErrPoisoned, got %v", i, err)
		}
	}
	if err := l.TruncateBefore(1); !errors.Is(err, ErrPoisoned) {
		t.Errorf("TruncateBefore on poisoned log: want ErrPoisoned, got %v", err)
	}
}

// TestBatchFailureRollsBackWholeBatch: AppendBatch is all-or-nothing; a
// write failure mid-batch must roll back every seq in the batch.
func TestBatchFailureRollsBackWholeBatch(t *testing.T) {
	l, ff, path := faultLog(t)
	if _, err := l.Append("a", nil); err != nil {
		t.Fatal(err)
	}
	ff.failWrite = true
	ff.shortN = 10
	items := []Item{{Type: "b"}, {Type: "c"}, {Type: "d"}}
	if _, err := l.AppendBatch(items); !errors.Is(err, errInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	seqs, err := l.AppendBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 3, 4}
	for i, s := range seqs {
		if s != want[i] {
			t.Errorf("seqs = %v, want %v", seqs, want)
			break
		}
	}
	_ = l.Close()
	if recs := replayAll(t, path); len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
}

// TestOpenSyncsDirOnCreate asserts — via the syncDir hook, since the fs
// effect isn't portably observable — that creating a new log fsyncs the
// parent directory, and that opening an existing log does not need to.
func TestOpenSyncsDirOnCreate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "new.wal")
	var synced []string
	orig := syncDir
	syncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	defer func() { syncDir = orig }()

	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("dir syncs on create = %v, want [%s]", synced, dir)
	}
	if _, err := l.Append("a", nil); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()

	// Reopen: file exists, no creation, no dir sync required.
	synced = nil
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(synced) != 0 {
		t.Errorf("dir syncs on reopen = %v, want none", synced)
	}

	// Compaction renames a fresh file into place: the dir must be synced.
	if _, err := l2.Append("b", nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.TruncateBefore(2); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Errorf("dir syncs after TruncateBefore = %v, want [%s]", synced, dir)
	}
	_ = l2.Close()
}

// TestReplayReadsInBlocks: compaction replays the log under l.mu, so every
// append waits for the whole re-read; a record must not cost read calls of
// its own. A 1,000-record log replays in a few reads, and each end offset
// still falls exactly on a record boundary (Open truncates a torn tail at
// the last one).
func TestReplayReadsInBlocks(t *testing.T) {
	l, ff, path := faultLog(t)
	items := make([]Item, 1000)
	for i := range items {
		items[i] = Item{Type: "x", Payload: &testPayload{Path: "/a/b", N: i}}
	}
	if _, err := l.AppendBatch(items); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ff.reads = 0
	var ends []int64
	if err := replayFrom(ff, func(_ Record, end int64) error {
		ends = append(ends, end)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ends) != len(items) {
		t.Fatalf("replayed %d records, want %d", len(ends), len(items))
	}
	off := int64(0)
	for i, end := range ends {
		off += 8 + int64(binary.BigEndian.Uint32(data[off:]))
		if end != off {
			t.Fatalf("record %d ends at %d, its frame at %d", i, end, off)
		}
	}
	if max := 1 + len(data)/4096; ff.reads > max {
		t.Errorf("replaying %d bytes took %d reads, want <= %d", len(data), ff.reads, max)
	}
}

func TestTruncateBeforeCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if _, err := l.Append("x", &testPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateBefore(4); err != nil {
		t.Fatal(err)
	}
	// Appends continue with the original numbering.
	seq, err := l.Append("y", nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Errorf("seq after compact = %d, want 7", seq)
	}
	_ = l.Close()

	recs := replayAll(t, path)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4 (seqs 4..7)", len(recs))
	}
	if recs[0].Seq != 4 || recs[3].Seq != 7 {
		t.Errorf("replayed seq range %d..%d, want 4..7", recs[0].Seq, recs[3].Seq)
	}

	// Reopen picks up the compacted log and keeps counting.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if l2.Seq() != 7 {
		t.Errorf("Seq after reopen = %d, want 7", l2.Seq())
	}
}
