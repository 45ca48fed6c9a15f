package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

func TestBatcherConcurrentAppendsAllDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(l)

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	seqs := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seq, err := b.Append("setattr", &testPayload{Path: fmt.Sprintf("/w%d/%d", w, i)})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}(w)
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Every append got a unique seq; per-worker seqs strictly increase
	// (each worker waited for durability before its next append).
	var all []int64
	for w := 0; w < workers; w++ {
		for i := 1; i < len(seqs[w]); i++ {
			if seqs[w][i] <= seqs[w][i-1] {
				t.Fatalf("worker %d seqs not increasing: %v", w, seqs[w])
			}
		}
		all = append(all, seqs[w]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, s := range all {
		if s != int64(i+1) {
			t.Fatalf("seqs not dense at %d: got %d", i, s)
		}
	}

	// The log replays every record.
	count := 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != workers*perWorker {
		t.Errorf("replayed %d records, want %d", count, workers*perWorker)
	}

	// Group commit actually grouped: fewer fsync windows than records.
	appends, flushes := b.Stats()
	if appends != workers*perWorker {
		t.Errorf("appends stat = %d, want %d", appends, workers*perWorker)
	}
	if flushes <= 0 || flushes > appends {
		t.Errorf("flushes stat = %d (appends %d)", flushes, appends)
	}
}

func TestBatcherEnqueueAfterClose(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "c.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	b := NewBatcher(l)
	if _, err := b.Append("create", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append("setattr", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: want ErrClosed, got %v", err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestBatcherCloseFlushesPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(l)
	tickets := make([]*Ticket, 10)
	for i := range tickets {
		tickets[i] = b.Enqueue("setattr", &testPayload{Size: int64(i)})
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d after close: %v", i, err)
		}
	}
	_ = l.Close()
	count := 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != len(tickets) {
		t.Errorf("replayed %d, want %d", count, len(tickets))
	}
}

// TestBatcherOversizedItemFailsAlone: one record over MaxRecordSize must
// not fail the other tickets that happened to share its flush window.
func TestBatcherOversizedItemFailsAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(l)
	big := make([]byte, MaxRecordSize+1)
	tGood1 := b.Enqueue("setattr", &testPayload{Size: 1})
	tBig := b.Enqueue("setattr", &testPayload{Path: string(big)})
	tGood2 := b.Enqueue("setattr", &testPayload{Size: 2})
	if _, err := tBig.Wait(); !errors.Is(err, ErrRecordTooBig) {
		t.Errorf("big record: want ErrRecordTooBig, got %v", err)
	}
	if _, err := tGood1.Wait(); err != nil {
		t.Errorf("good record 1 failed with oversized neighbor: %v", err)
	}
	if _, err := tGood2.Wait(); err != nil {
		t.Errorf("good record 2 failed with oversized neighbor: %v", err)
	}
	_ = b.Close()
	_ = l.Close()
	count := 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("replayed %d records, want 2", count)
	}
}
