package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"testing"
)

// parentFrames is how AppendBatch encoded a batch before it framed records
// by appending, kept verbatim as the reference the log's bytes are held to:
// the payload marshalled on its own, then marshalled again (and re-validated)
// as the Record's RawMessage. Old logs replay on new code and new logs on old
// exactly as long as the two agree byte for byte.
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
		rec := Record{Seq: seq, Type: it.Type, Data: datas[i]}
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

// selfAppending is a payload that encodes itself, the way the MDS's entry
// records do; its struct tags describe the same bytes, so the reference can
// marshal it by reflection.
type selfAppending struct {
	Path string `json:"path"`
	N    int64  `json:"n"`
}

func (p *selfAppending) AppendJSON(b []byte) []byte {
	b = append(b, `{"path":"`...)
	b = append(b, p.Path...) // plain paths only: nothing to escape
	b = append(b, `","n":`...)
	b = strconv.AppendInt(b, p.N, 10)
	return append(b, '}')
}

// goldenBatch is one batch with a payload of every kind AppendBatch tells
// apart — none, self-appending, marshalled — and the strings encoding/json
// treats specially in a type and in a payload.
func goldenBatch() []Item {
	var nilPayload *testPayload
	return []Item{
		{Type: "setattr", Payload: &selfAppending{Path: "/home/user0/a.txt", N: 7}},
		{Type: "remove"},
		{Type: "create", Payload: &testPayload{Path: "/a/<b>&c \xff\"\\\n", N: -1}},
		{Type: "install", Payload: map[string]interface{}{"root": "/r", "entries": []int{1, 2, 3}}},
		{Type: "raw", Payload: json.RawMessage(" { \"k\" : [ 1 , \"<\" ] } ")},
		{Type: "nil-pointer", Payload: nilPayload},
		{Type: "quoted \"type\" <é>\x01", Payload: &selfAppending{Path: "", N: 0}},
		{Type: "", Payload: ""},
	}
}

func TestAppendBatchBytesMatchParentEncoding(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Two batches, so the second is framed in the buffer the first left and
	// with sequence numbers that do not start at 1.
	first := goldenBatch()[:3]
	if _, err := l.AppendBatch(first); err != nil {
		t.Fatal(err)
	}
	seqs, err := l.AppendBatch(goldenBatch())
	if err != nil {
		t.Fatal(err)
	}
	if seqs[0] != 4 || seqs[len(seqs)-1] != int64(3+len(goldenBatch())) {
		t.Fatalf("seqs = %v", seqs)
	}
	wantFirst, err := parentFrames(0, first)
	if err != nil {
		t.Fatal(err)
	}
	wantSecond, err := parentFrames(3, goldenBatch())
	if err != nil {
		t.Fatal(err)
	}
	want := append(wantFirst, wantSecond...)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log bytes differ from the parent's encoding\n got %q\nwant %q", got, want)
	}

	// Compaction frames the surviving records through the same code.
	if err := l.TruncateBefore(6); err != nil {
		t.Fatal(err)
	}
	wantTail, err := parentFrames(5, goldenBatch()[2:])
	if err != nil {
		t.Fatal(err)
	}
	if got, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantTail) {
		t.Fatalf("compacted log differs from the parent's encoding\n got %q\nwant %q", got, wantTail)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := replayAll(t, path); len(recs) != len(goldenBatch())-2 || recs[0].Seq != 6 {
		t.Fatalf("replayed %d records from seq %d", len(recs), recs[0].Seq)
	}
}

// TestAppendBatchRejectsLikeParent: a payload that cannot be marshalled and a
// record past MaxRecordSize fail the whole batch with nothing written and the
// sequence counter where it was.
func TestAppendBatchRejectsLikeParent(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	ok := Item{Type: "ok", Payload: &selfAppending{Path: "/a", N: 1}}
	for name, bad := range map[string]Item{
		"unmarshalable": {Type: "bad", Payload: func() {}},
		"too big":       {Type: "big", Payload: &selfAppending{Path: string(make([]byte, MaxRecordSize)), N: 1}},
	} {
		if _, err := l.AppendBatch([]Item{ok, bad, ok}); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
		if l.Seq() != 0 {
			t.Errorf("%s: seq = %d after a rejected batch, want 0", name, l.Seq())
		}
	}
	if seq, err := l.Append("ok", ok.Payload); err != nil || seq != 1 {
		t.Fatalf("append after rejected batches: seq %d, err %v", seq, err)
	}
	want, _ := parentFrames(0, []Item{ok})
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatalf("rejected batches left bytes behind\n got %q\nwant %q", got, want)
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

// TestAppendBatchAllocs pins what framing a flush window costs. Records that
// append themselves (what an MDS journals per create and setattr) go into the
// buffer the log keeps: the batch allocates the sequence numbers it returns
// and nothing else, whatever its size. A marshalled payload adds what
// json.Marshal allocates for it, once.
func TestAppendBatchAllocs(t *testing.T) {
	l := &Log{f: discardFile{}}
	entries := make([]Item, 8)
	for i := range entries {
		entries[i] = Item{Type: "setattr", Payload: &selfAppending{Path: "/home/user0/project/src/main.go", N: int64(i)}}
	}
	if _, err := l.AppendBatch(entries); err != nil { // sizes the kept buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.AppendBatch(entries); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("a batch of 8 self-appending records allocates %.1f objects, want 1 (the seqs)", allocs)
	}

	marshalled := []Item{{Type: "rename", Payload: &testPayload{Path: "/a", N: 1}}}
	ref := testing.AllocsPerRun(200, func() {
		if _, err := json.Marshal(marshalled[0].Payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.AppendBatch(marshalled); err != nil {
			t.Fatal(err)
		}
	}); allocs > ref+1 {
		t.Errorf("a marshalled record allocates %.1f objects, want <= %.0f (one json.Marshal) + 1 (the seqs)", allocs, ref)
	}
}
