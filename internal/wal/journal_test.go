package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"d2tree/internal/obs"
	"d2tree/internal/wire"
)

// tally is a daemon whose Apply is not idempotent: it appends each record's
// version to applied, so a record applied twice, or skipped, shows. Its
// image holds the versions applied as the versions of a global layer.
type tally struct {
	mu      sync.Mutex
	applied []int64
}

func (c *tally) machine() Machine[Entry] {
	return Machine[Entry]{
		Kinds: map[string]func() Entry{"setattr": func() Entry { return &wire.SetAttrRecord{} }},
		Apply: func(r Entry) { c.applied = append(c.applied, r.(*wire.SetAttrRecord).Entry.Version) },
		Image: func() Image {
			img := &wire.MonitorImage{}
			for _, v := range c.applied {
				img.GL = append(img.GL, wire.Entry{Version: v})
			}
			return func(horizon int64) any {
				img.Horizon = horizon
				return img
			}
		},
		Lock: &c.mu,
		Load: func(body []byte) (int64, error) {
			if body == nil {
				return 0, nil
			}
			img := new(wire.MonitorImage)
			if err := wire.DecodePayload(body, img); err != nil {
				return 0, err
			}
			for _, e := range img.GL {
				c.applied = append(c.applied, e.Version)
			}
			return img.Horizon, nil
		},
		Rec: obs.NewRecorder("test", 0),
	}
}

// setattr is the record tally logs for version v.
func setattr(v int64) *wire.SetAttrRecord {
	return &wire.SetAttrRecord{Entry: wire.Entry{Path: "/f", Kind: wire.EntryFile, Version: v}}
}

// commit commits the records for versions from through to, each waited on.
func (c *tally) commit(t *testing.T, j *Journal[Entry], from, to int64) {
	t.Helper()
	for v := from; v <= to; v++ {
		c.mu.Lock()
		j.Commit(setattr(v))
		tail := j.Tail()
		c.mu.Unlock()
		j.Wait(tail)
	}
	if j.Degraded() {
		t.Fatal("a commit failed")
	}
}

// recovered opens the journal at path and image on a fresh tally, and
// returns the versions it applied.
func recovered(t *testing.T, path, image string) []int64 {
	t.Helper()
	c := &tally{}
	j, err := OpenJournal(path, image, c.machine())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return c.applied
}

// TestRecoveryAppliesExactlyPastTheHorizon: records 1-5 are committed, the
// log is compacted (horizon 5) and 6-8 committed. Recovery applies the
// image's five and then exactly the records numbered past its horizon: from
// the compacted log; from the whole log, as a crash between the image write
// and the log's truncation leaves it, the horizon's record among them; and
// from a JSON-era log of all eight, which the open upgrades.
func TestRecoveryAppliesExactlyPastTheHorizon(t *testing.T) {
	dir := t.TempDir()
	path, image := filepath.Join(dir, "j.wal"), filepath.Join(dir, "j.img")
	c := &tally{}
	j, err := OpenJournal(path, image, c.machine())
	if err != nil {
		t.Fatal(err)
	}
	c.commit(t, j, 1, 5)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	c.commit(t, j, 6, 8)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	for v := int64(1); v <= 8; v++ {
		items = append(items, Item{Type: "setattr", Payload: setattr(v)})
	}
	jsonLog, err := parentFrames(0, items)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, log := range []struct {
		what string
		data []byte
	}{
		{"the compacted log", compacted},
		{"the log the compaction did not truncate", append(whole, compacted[logHead:]...)},
		{"a JSON-era log", jsonLog},
	} {
		if err := os.WriteFile(path, log.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := recovered(t, path, image); !slices.Equal(got, want) {
			t.Errorf("recovery from %s applied %v, want %v", log.what, got, want)
		}
	}

	// The upgrade left an image at horizon 8 and a current log that holds
	// no record and numbers on from 8.
	if got := recovered(t, path, image); !slices.Equal(got, want) {
		t.Errorf("recovery after the upgrade applied %v, want %v", got, want)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Append("setattr", setattr(9)); err != nil || seq != 9 {
		t.Errorf("the upgraded log numbered its first record %d (%v), want 9", seq, err)
	}
	_ = l.Close()
}

// TestIdleCompactionWritesNothing: a compaction with no record logged since
// the last image returns at once, leaving the image's bytes and mtime and the
// compactions stat as they were. One more commit makes the next compaction
// write, and so does a reopened journal's first compaction when its log holds
// a record past the image. A journal with no image on disk writes one at its
// first compaction: the state it opened in is not on disk as an image.
func TestIdleCompactionWritesNothing(t *testing.T) {
	dir := t.TempDir()
	path, image := filepath.Join(dir, "j.wal"), filepath.Join(dir, "j.img")
	c := &tally{}
	j, err := OpenJournal(path, image, c.machine())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(image); !os.IsNotExist(err) {
		t.Fatalf("the open wrote an image (%v)", err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(image); err != nil {
		t.Fatalf("a journal with no image on disk wrote none at its first compaction (%v)", err)
	}
	state := func(j *Journal[Entry]) ([]byte, time.Time, int64) {
		t.Helper()
		data, err := os.ReadFile(image)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(image)
		if err != nil {
			t.Fatal(err)
		}
		_, _, compactions := j.Stats()
		return data, fi.ModTime(), compactions
	}
	c.commit(t, j, 1, 3)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	data, mtime, compactions := state(j)
	time.Sleep(10 * time.Millisecond) // past the filesystem's mtime granularity
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, gotMtime, gotCompactions := state(j); !bytes.Equal(got, data) || !gotMtime.Equal(mtime) || gotCompactions != compactions {
		t.Fatalf("an idle compaction rewrote the image (mtime %v, was %v) or counted itself (%d, was %d)", gotMtime, mtime, gotCompactions, compactions)
	}
	c.commit(t, j, 4, 4)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, _, gotCompactions := state(j); bytes.Equal(got, data) || gotCompactions != compactions+1 {
		t.Fatalf("the compaction after a commit wrote nothing (%d compactions, was %d)", gotCompactions, compactions)
	}
	c.commit(t, j, 5, 5)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	c = &tally{}
	if j, err = OpenJournal(path, image, c.machine()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	data, _, _ = state(j)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, _, gotCompactions := state(j); bytes.Equal(got, data) || gotCompactions != 1 {
		t.Fatalf("a reopened journal with a record past its image did not compact (%d compactions)", gotCompactions)
	}
	if got, want := recovered(t, path, image), []int64{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("recovered %v, want %v", got, want)
	}
}

// TestOtherVersionRefused: a log headed by an unknown or newer version byte
// fails the open with an error that names the file. Nothing is applied, and
// the file is left byte for byte as it was.
func TestOtherVersionRefused(t *testing.T) {
	for _, version := range []byte{2, 0x7f, 0xff} {
		dir := t.TempDir()
		path, image := filepath.Join(dir, "j.wal"), filepath.Join(dir, "j.img")
		c := &tally{}
		j, err := OpenJournal(path, image, c.machine())
		if err != nil {
			t.Fatal(err)
		}
		c.commit(t, j, 1, 3)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[0] = version
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r := &tally{}
		if _, err := OpenJournal(path, image, r.machine()); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("version %d: the open returned %v, want an error naming %s", version, err, path)
		}
		if len(r.applied) != 0 {
			t.Errorf("version %d: the refused open applied %v", version, r.applied)
		}
		if _, err := Open(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("version %d: Open returned %v, want an error naming %s", version, err, path)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Errorf("version %d: the refused opens changed the file (%v)", version, err)
		}
	}
}

// TestCutHeaderOpensEmpty: a log cut inside its header, as a crash while it
// was being created leaves it, opens as empty, numbers on from the image's
// horizon, and appends.
func TestCutHeaderOpensEmpty(t *testing.T) {
	for n := 0; n < logHead; n++ {
		dir := t.TempDir()
		path, image := filepath.Join(dir, "j.wal"), filepath.Join(dir, "j.img")
		c := &tally{}
		j, err := OpenJournal(path, image, c.machine())
		if err != nil {
			t.Fatal(err)
		}
		c.commit(t, j, 1, 3)
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, appendHead(nil, 3)[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		r := &tally{}
		if j, err = OpenJournal(path, image, r.machine()); err != nil {
			t.Fatalf("a header cut at %d bytes: %v", n, err)
		}
		r.commit(t, j, 4, 4)
		if seq := j.Log().Seq(); seq != 4 {
			t.Errorf("a header cut at %d bytes: the next record is numbered %d, want 4", n, seq)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := recovered(t, path, image), []int64{1, 2, 3, 4}; !slices.Equal(got, want) {
			t.Errorf("a header cut at %d bytes: recovered %v, want %v", n, got, want)
		}
	}
}

// frame appends rec framed as a log holds it.
func frame(b []byte, rec Record) []byte {
	at := len(b)
	b = append(b, make([]byte, recordHeader)...)
	b = append(binary.AppendUvarint(b, uint64(rec.Seq)), opCode(rec.Type))
	b, _ = endRecord(append(b, rec.Data...), at)
	return b
}

// FuzzReplay: any bytes are refused for their version, or read as a header
// and records up to a valid prefix; the records read frame back to the bytes
// they were read from.
func FuzzReplay(f *testing.F) {
	golden := appendHead(nil, 0)
	for i, it := range goldenBatch() {
		data, err := wire.AppendPayload(nil, it.Type, it.Payload)
		if it.Payload == nil {
			data, err = nil, nil
		}
		if err != nil {
			f.Fatal(err)
		}
		golden = frame(golden, Record{Seq: int64(i + 1), Type: it.Type, Data: data})
	}
	jsonLog, err := parentFrames(0, goldenBatch())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-3])
	f.Add(append(golden[:len(golden):len(golden)], 0, 0, 0, 1, 0, 0, 0, 0, 0))
	f.Add(jsonLog)
	f.Add([]byte{})
	f.Add(golden[:4])
	f.Add(append([]byte{2}, golden[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		base, whole, err := readHead(r, "fuzz.wal")
		if err != nil {
			if data[0] == logVersion {
				t.Fatalf("a log of this version refused: %v", err)
			}
			return
		}
		if !whole {
			return // cut inside the header: an empty log
		}
		out := appendHead(nil, base)
		err = replayFrom(r, logHead, decodeRecord, func(rec Record, end int64) error {
			if out = frame(out, rec); int64(len(out)) != end {
				t.Fatalf("record %d ends at %d, framed again at %d", rec.Seq, end, len(out))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data[:len(out)]) {
			t.Fatalf("the records read frame back to\n%x\nnot\n%x", out, data[:len(out)])
		}
	})
}
