package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"d2tree/internal/wire"
)

// testPayload is the payload the log's tests journal, as the benchmark's
// probe of the log does: any type with a code method in wire's codec will do.
type testPayload = wire.SetAttrRequest

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		seq, err := l.Append("setattr", &testPayload{Path: "/a", Size: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i) {
			t.Errorf("seq = %d, want %d", seq, i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []testPayload
	err = Replay(path, func(rec Record) error {
		if rec.Type != "setattr" {
			t.Errorf("type = %q", rec.Type)
		}
		var p testPayload
		if err := wire.DecodePayload(rec.Data, &p); err != nil {
			return err
		}
		got = append(got, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[4].Size != 5 {
		t.Fatalf("replayed %d records: %+v", len(got), got)
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	calls := 0
	err := Replay(filepath.Join(t.TempDir(), "nope.wal"), func(Record) error {
		calls++
		return nil
	})
	if err != nil || calls != 0 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("create", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("setattr", nil); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if l2.Seq() != 2 {
		t.Errorf("Seq = %d, want 2", l2.Seq())
	}
	seq, err := l2.Append("rename", nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Errorf("next seq = %d, want 3", seq)
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append("setattr", &testPayload{Size: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_ = l.Close()

	// Simulate a crash mid-append: chop a few bytes off the tail.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	count := 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("replayed %d records after torn tail, want 2", count)
	}

	// Reopen: the torn tail must be discarded and appends continue from 2.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if l2.Seq() != 2 {
		t.Errorf("Seq after torn tail = %d, want 2", l2.Seq())
	}
	if _, err := l2.Append("rename", nil); err != nil {
		t.Fatal(err)
	}
	count = 0
	_ = l2.Close()
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("records after recovery append = %d, want 3", count)
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("setattr", &testPayload{Size: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("setattr", &testPayload{Size: 2}); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()

	// Flip a byte inside the second record's body.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("replayed %d records past corruption, want 1", count)
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	if _, err := l.Append("setattr", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append("setattr", nil); err != nil {
			t.Fatal(err)
		}
	}
	_ = l.Close()
	boom := errors.New("boom")
	count := 0
	err = Replay(path, func(Record) error {
		count++
		if count == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || count != 2 {
		t.Errorf("err=%v count=%d", err, count)
	}
}
