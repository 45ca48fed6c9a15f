package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"d2tree/internal/wire"
)

// reframeTruncateBefore is TruncateBefore as it was before compaction
// copied the kept bytes: every record decoded by replayFrom and the kept ones
// framed again, behind a header whose base is the last record dropped. Kept,
// with the Log as a parameter, as the reference the compacted file is held
// to.
func reframeTruncateBefore(l *Log, minSeq int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poisoned {
		return ErrPoisoned
	}
	base := l.base
	var frames []byte
	err := replayFrom(l.f, logHead, decodeRecord, func(rec Record, _ int64) error {
		if rec.Seq < minSeq {
			base = rec.Seq
			return nil
		}
		at := len(frames)
		frames = append(frames, make([]byte, recordHeader)...)
		frames = append(binary.AppendUvarint(frames, uint64(rec.Seq)), opCode(rec.Type))
		var err error
		frames, err = endRecord(append(frames, rec.Data...), at)
		return err
	})
	if err != nil {
		l.restoreAppendPosLocked()
		return err
	}
	buf := append(appendHead(nil, base), frames...)
	tmpPath := l.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		l.restoreAppendPosLocked()
		return fmt.Errorf("wal: create %s: %w", tmpPath, err)
	}
	if _, err = tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpPath)
		l.restoreAppendPosLocked()
		return fmt.Errorf("wal: write %s: %w", tmpPath, err)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpPath)
		l.restoreAppendPosLocked()
		return fmt.Errorf("wal: rename: %w", err)
	}
	// The rename happened; best-effort dir sync makes it durable. The open
	// handle follows the inode either way.
	_ = syncDir(l.dir)
	// The open tmp handle followed the inode through the rename: it IS the
	// new log file. Swap it in and retire the old handle.
	_ = l.f.Close()
	l.f, l.base = tmp, base
	l.durable = int64(len(buf))
	if _, err := tmp.Seek(l.durable, io.SeekStart); err != nil {
		l.poisoned = true
		return fmt.Errorf("wal: seek after compact: %w", err)
	}
	return nil
}

// TestTruncateBeforeMatchesReframing: over seeded histories of batches of
// every payload kind, batches refused as too big, torn writes and failed
// syncs rolled back, reopens, and cuts anywhere from before the first record
// to past the last (repeatedly, with appends between), the copying
// compaction leaves the very bytes decoding and re-framing every record does,
// and the log goes on numbering and appending as the reference's.
func TestTruncateBeforeMatchesReframing(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		paths := [2]string{filepath.Join(dir, "copy.wal"), filepath.Join(dir, "reframe.wal")}
		var logs [2]*Log
		var faults [2]*faultFile
		open := func() {
			for i, p := range paths {
				l, err := Open(p)
				if err != nil {
					t.Fatal(err)
				}
				faults[i] = &faultFile{f: l.f.(*os.File)}
				l.f, logs[i] = faults[i], l
			}
		}
		open()
		batch := func() []Item {
			var items []Item
			for n := 1 + rng.Intn(6); n > 0; n-- {
				items = append(items, goldenBatch()[rng.Intn(len(goldenBatch()))])
			}
			if rng.Intn(20) == 0 {
				items = append(items, Item{Type: "remove", Payload: &wire.RemoveRecord{Root: strings.Repeat("x", MaxRecordSize)}})
			}
			return items
		}
		same := func(step string) {
			t.Helper()
			a, errA := os.ReadFile(paths[0])
			b, errB := os.ReadFile(paths[1])
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d, %s: the compacted log differs from the reframed one\n got %q\nwant %q", seed, step, a, b)
			}
			if logs[0].Seq() != logs[1].Seq() || logs[0].durable != logs[1].durable {
				t.Fatalf("seed %d, %s: seq %d, durable %d; the reference's %d, %d", seed, step,
					logs[0].Seq(), logs[0].durable, logs[1].Seq(), logs[1].durable)
			}
		}
		for step := 0; step < 30; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				items := batch()
				fail, torn := rng.Intn(6), rng.Intn(64)
				for i, l := range logs {
					switch fail {
					case 0:
						faults[i].failWrite, faults[i].shortN = true, torn
					case 1:
						faults[i].failSync = true
					}
					_, _ = l.AppendBatch(items)
					faults[i].failWrite, faults[i].failSync = false, false // unspent when the batch was refused
				}
			case op < 9:
				cut := rng.Int63n(logs[0].Seq() + 3)
				if err := logs[0].TruncateBefore(cut); err != nil {
					t.Fatal(err)
				}
				if err := reframeTruncateBefore(logs[1], cut); err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("step %d, cut before %d", step, cut))
				for i, l := range logs {
					faults[i] = &faultFile{f: l.f.(*os.File)}
					l.f = faults[i]
				}
			default:
				for _, l := range logs {
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
				}
				open()
			}
		}
		same("the end")
		for _, l := range logs {
			_ = l.Close()
		}
	}
}
