package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// frameBytes encodes a raw body with a length prefix, valid or not.
func frameBytes(body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(out, uint32(len(body)))
	copy(out[4:], body)
	return out
}

func FuzzDecodeFrame(f *testing.F) {
	// Well-formed frame.
	var buf bytes.Buffer
	env, err := NewEnvelope(7, TypeHeartbeat, &HeartbeatRequest{ServerID: 1, Load: 3, HotPaths: map[string]int64{"/a": 2}})
	if err != nil {
		f.Fatal(err)
	}
	env.ReqID, env.Span = "r-7", "mds-1"
	if err := WriteFrame(&buf, env); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Corrupt shapes: empty input, short header, truncated body, length
	// prefix larger than the payload, a body that is no frame, huge claimed
	// size, a JSON frame.
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(buf.Bytes()[:8])
	f.Add(append(frameBytes(nil), 'x'))
	f.Add(frameBytes([]byte("not a frame at all")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(frameBytes([]byte(`{"id":18446744073709551615,"type":"\u0000"}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // any malformed input must fail cleanly, never panic
		}
		// A decoded frame encodes back to the bytes it was read from.
		var out bytes.Buffer
		if err := WriteFrame(&out, env); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if n := out.Len(); n > len(data) || !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatalf("frame %x re-encodes as %x", data, out.Bytes())
		}
		again, err := ReadFrame(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.ID != env.ID || again.Type != env.Type || again.Error != env.Error {
			t.Fatalf("round trip changed envelope: %+v vs %+v", env, again)
		}
	})
}

// FuzzFastDecodeEnvelope differentially fuzzes the serving loop's in-place
// envelope decode against ReadFrame: both refuse a body, or both give the
// same envelope, which encodes back to the body.
func FuzzFastDecodeEnvelope(f *testing.F) {
	for _, seed := range [][]byte{
		frameBody(f, 0, TypeOK, "", "", "", nil),
		frameBody(f, 7, TypeHeartbeat, "", "", "", nil),
		frameBody(f, 7, TypeLookup, "c0-42", "mds-1", "", encode(f, &LookupRequest{Path: "/a"})),
		frameBody(f, 1, TypeError, "", "", "server: path not found", nil),
		frameBody(f, 1<<64-1, TypeObsDump, "", "", "", nil),
		frameBody(f, 3, TypeOK, "", "", "", encode(f, &LockResponse{Granted: true})),
		frameBody(f, 12, TypeSetAttr, "c0-43", "client-1", "", encode(f, &SetAttrRequest{Path: "/a", Size: 7, Mode: 0o644})),
		frameBody(f, 13, TypeGLUpdate, "c0-43", "mds-0", "", encode(f, &GLUpdateRequest{ServerID: 1, Op: TypeSetAttr, Entry: Entry{Path: "/gl/a"}})),
		frameBody(f, 8, TypeBatch, "", "client-2", "", encode(f, &BatchRequest{Ops: []BatchOp{{Op: BatchLookup, Path: "/a"}}, HotPaths: map[string]int64{"/a": 3}})),
		frameBody(f, 10, TypeOK, "", "", "", encode(f, &ReaddirPlusResponse{Entries: []Entry{{Path: "/a/b", Kind: EntryFile, Version: 1}}, DirVersion: 7})),
		frameBody(f, 11, TypeCreateWithAttrs, "\x00", "\xff", "", nil),
		frameBody(f, 4, TypeStats, strings.Repeat("r", 200), "", "", nil),
		{1, 0, 0, 0, 0},
		{1, '"', 0, 0, 0},
		{0x80, 0x00, 1, 0, 0, 0},
		{1, 1, 5, 'a'},
		{1, 1, 0, 0},
		[]byte(`{"id":7,"type":"lookup","reqId":"c0-42","span":"mds-1","payload":{"path":"/a"}}`),
		[]byte(`{}`),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgrees(t, data)
	})
}

// TestReadFrameHostileLengthPrefix pins the hardening in readBody: a header
// claiming MaxFrameSize with no body behind it must fail without allocating
// anywhere near the claimed size.
func TestReadFrameHostileLengthPrefix(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)

	if err == nil {
		t.Fatal("truncated frame decoded without error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("unexpected error: %v", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Fatalf("ReadFrame allocated %d bytes for a frame that delivered none (chunked reads should cap this)", delta)
	}
}

func TestReadFrameOversizePrefixRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

// TestReadFrameLargeBodyRoundTrip drives the multi-chunk path in readBody
// with a frame bigger than one chunk.
func TestReadFrameLargeBodyRoundTrip(t *testing.T) {
	big := strings.Repeat("x", 200<<10)
	env, err := NewEnvelope(42, TypeInstall, &InstallRequest{Tree: Subtree{Path: "/big", Nodes: []SubtreeNode{{Kind: EntryDir}, {Kind: EntryFile, Name: big}}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var req InstallRequest
	if got.ID != 42 || got.Type != TypeInstall || got.Decode(&req) != nil || len(req.Tree.Nodes) != 2 || req.Tree.Nodes[1].Name != big {
		t.Fatal("large frame did not round-trip")
	}
}

// FuzzDecodeSubtree: whatever the bytes, a subtree decode returns without
// panicking and allocates in proportion to the input, not to a count the
// input declares. What it accepts is a tree AddChild could have built, every
// parent before its node and every name non-empty and free of '/', under an
// absolute path, and it encodes back to the bytes it was read from.
func FuzzDecodeSubtree(f *testing.F) {
	for _, st := range []Subtree{
		{},
		{Path: "/r"},
		{Path: "/", Nodes: []SubtreeNode{
			{Kind: EntryDir, Version: 1},
			{Kind: EntryDir, Name: "a", Version: 1},
			{Parent: 1, Kind: EntryFile, Name: "x", Size: 7, Mode: 0o644, Version: 3},
			{Kind: EntryFile, Name: "b", Version: 1},
		}},
		{Path: "/r/s", Nodes: []SubtreeNode{{}, {Name: "held-by-no-entry"}, {Parent: 1, Kind: EntryFile, Name: "f", Version: 2}}},
	} {
		f.Add(encode(f, &st))
	}
	f.Add([]byte{2, '/', 'r', 2, 1, 0, 0, 2, 1, 2, 1, '/', 0, 0, 2})     // a name with '/'
	f.Add([]byte{2, '/', 'r', 2, 1, 0, 0, 2, 2, 2, 1, 'x', 0, 0, 2})     // a parent before the root
	f.Add([]byte{2, '/', 'r', 2, 1, 0, 0, 2, 0, 2, 1, 'x', 0, 0, 2})     // a node its own parent
	f.Add([]byte{1, 'r', 1, 1, 0, 0, 2})                                 // a relative path
	f.Add([]byte{2, '/', 'r', 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 0, 0, 2}) // a count the input cannot hold
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var st Subtree
		err := decodePayload(data, &st)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10+32*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		if len(st.Nodes) > 0 && !strings.HasPrefix(st.Path, "/") {
			t.Fatalf("accepted nodes under the relative path %q", st.Path)
		}
		for i, n := range st.Nodes[min(1, len(st.Nodes)):] {
			if n.Parent > i || n.Name == "" || strings.Contains(n.Name, "/") {
				t.Fatalf("accepted node %d with parent %d and name %q", i+1, n.Parent, n.Name)
			}
		}
		if again := encode(t, &st); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encodes as %x", data, again)
		}
	})
}
