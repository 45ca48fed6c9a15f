package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"d2tree/internal/wire"
)

// parentFrames is how a JSON-era log framed a batch, kept verbatim as the
// upgrade tests' input: the payload marshalled on its own, then marshalled
// again (and re-validated) as the record's data.
func parentFrames(seq int64, items []Item) ([]byte, error) {
	datas := make([]json.RawMessage, len(items))
	for i, it := range items {
		if it.Payload == nil {
			continue
		}
		raw, err := json.Marshal(it.Payload)
		if err != nil {
			return nil, fmt.Errorf("wal: marshal %s: %w", it.Type, err)
		}
		datas[i] = raw
	}
	var buf bytes.Buffer
	var hdr [8]byte
	for i, it := range items {
		seq++
		rec := struct {
			Seq  int64           `json:"seq"`
			Type string          `json:"type"`
			Data json.RawMessage `json:"data,omitempty"`
		}{seq, it.Type, datas[i]}
		body, err := json.Marshal(&rec)
		if err != nil {
			return nil, fmt.Errorf("wal: marshal record: %w", err)
		}
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
		buf.Write(hdr[:])
		buf.Write(body)
	}
	return buf.Bytes(), nil
}

// goldenBatch is one batch with a record of every shape: no payload, an
// entry with the strings a JSON encoder treats specially, trees, nested
// owners, and the setattr request the benchmark's probe journals.
func goldenBatch() []Item {
	return []Item{
		{Type: "setattr", Payload: &wire.SetAttrRecord{Entry: wire.Entry{Path: "/home/user0/a.txt", Kind: wire.EntryFile, Size: 7, Mode: 0o644, Version: 3}}},
		{Type: "remove"},
		{Type: "create", Payload: &wire.CreateRecord{Entry: wire.Entry{Path: "/a/<b>&c \xff\"\\\n", Kind: wire.EntryDir, Size: -1, Version: 1}}},
		{Type: "install_trees", Payload: &wire.InstallRecord{Roots: []string{"/r"}, Trees: []wire.Subtree{{Path: "/r", Nodes: []wire.SubtreeNode{{Kind: wire.EntryDir, Version: 1}}}}}},
		{Type: "gl_layer", Payload: &wire.LayerRecord{Reset: true, GLVersion: 9, Owners: []wire.OwnerRecord{{Root: "/r", Server: 1}}}},
		{Type: "setattr", Payload: &wire.SetAttrRequest{Path: "/bench/probe", Size: 1, Mode: 0o644}},
		{Type: "owner", Payload: &wire.OwnerRecord{}},
	}
}

// TestLogBytes pins the log's layout: the header (version 1, base 0), then
// each record as its body's length and CRC-32, and the body: a uvarint seq,
// the op byte, and the payload in wire's codec.
func TestLogBytes(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch([]Item{{Type: "rename", Payload: &wire.RenameRequest{Path: "/a", NewName: "b"}}, {Type: "remove"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0}
	for _, body := range [][]byte{
		{1, 3, 2, '/', 'a', 1, 'b'}, // seq 1, rename, "/a", "b"
		{2, 5},                      // seq 2, remove, no payload
	} {
		want = binary.BigEndian.AppendUint32(want, uint32(len(body)))
		want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(body))
		want = append(want, body...)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("log bytes\n got %v (%v)\nwant %v", got, err, want)
	}
}

// TestAppendBatchBytes: two batches, the second framed in the buffer the
// first left and numbered on from it, replay as the items they were made of,
// each payload as wire's codec encodes it.
func TestAppendBatchBytes(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	items := append(goldenBatch()[:3], goldenBatch()...)
	if _, err := l.AppendBatch(items[:3]); err != nil {
		t.Fatal(err)
	}
	seqs, err := l.AppendBatch(items[3:])
	if err != nil {
		t.Fatal(err)
	}
	if seqs[0] != 4 || seqs[len(seqs)-1] != int64(len(items)) {
		t.Fatalf("seqs = %v", seqs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, path)
	if len(recs) != len(items) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(items))
	}
	for i, rec := range recs {
		var want []byte
		if items[i].Payload != nil {
			if want, err = wire.AppendPayload(nil, items[i].Type, items[i].Payload); err != nil {
				t.Fatal(err)
			}
		}
		if rec.Seq != int64(i+1) || rec.Type != items[i].Type || !bytes.Equal(rec.Data, want) {
			t.Fatalf("record %d replayed as %d %s %x, want %s %x", i, rec.Seq, rec.Type, rec.Data, items[i].Type, want)
		}
	}
}

// TestAppendBatchRejects: a record of a type not in ops, a payload with no
// codec and a record past MaxRecordSize fail the whole batch with nothing
// written and the sequence counter where it was.
func TestAppendBatchRejects(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	empty, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ok := Item{Type: "remove", Payload: &wire.RemoveRecord{Root: "/a"}}
	for name, bad := range map[string]Item{
		"unknown type": {Type: "bad", Payload: &wire.RemoveRecord{Root: "/a"}},
		"no codec":     {Type: "remove", Payload: func() {}},
		"too big":      {Type: "remove", Payload: &wire.RemoveRecord{Root: string(make([]byte, MaxRecordSize))}},
	} {
		if _, err := l.AppendBatch([]Item{ok, bad, ok}); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
		if l.Seq() != 0 {
			t.Errorf("%s: seq = %d after a rejected batch, want 0", name, l.Seq())
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, empty) {
			t.Errorf("%s: the rejected batch left bytes behind", name)
		}
	}
	if seq, err := l.Append(ok.Type, ok.Payload); err != nil || seq != 1 {
		t.Fatalf("append after rejected batches: seq %d, err %v", seq, err)
	}
}

// discardFile is a log file that keeps nothing: the allocation budget below
// is the framing's own, with no fsync to wait for.
type discardFile struct{}

func (discardFile) Write(p []byte) (int, error)    { return len(p), nil }
func (discardFile) Read([]byte) (int, error)       { return 0, nil }
func (discardFile) Seek(int64, int) (int64, error) { return 0, nil }
func (discardFile) Truncate(int64) error           { return nil }
func (discardFile) Sync() error                    { return nil }
func (discardFile) Close() error                   { return nil }

// TestAppendBatchAllocs pins what framing a flush window costs: records go
// through wire's codec into the buffer the log keeps, so a batch of the
// setattr records an MDS journals allocates the sequence numbers it returns
// and nothing else.
func TestAppendBatchAllocs(t *testing.T) {
	l := &Log{f: discardFile{}}
	entries := make([]Item, 8)
	for i := range entries {
		entries[i] = Item{Type: "setattr", Payload: &wire.SetAttrRecord{Entry: wire.Entry{
			Path: "/home/user0/project/src/main.go", Kind: wire.EntryFile, Size: int64(i), Mode: 0o644, Version: int64(i)}}}
	}
	if _, err := l.AppendBatch(entries); err != nil { // sizes the kept buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.AppendBatch(entries); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("a batch of 8 setattr records allocates %.1f objects, want 1 (the seqs)", allocs)
	}
}
