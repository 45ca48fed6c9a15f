package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// frameBody encodes an envelope and payload the way every peer writes one.
func frameBody(t testing.TB, id uint64, msgType, reqID, span, errMsg string, payload []byte) []byte {
	t.Helper()
	b, err := appendHead(nil, id, msgType, reqID, span, errMsg)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, payload...)
}

// checkDecodeAgrees asserts the serving loop's in-place decode and ReadFrame
// agree on body: both refuse it as a bad frame, or both give the same
// envelope, which encodes back to body.
func checkDecodeAgrees(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var got Envelope
	gotErr := decodeRequest(body, &got)
	want, wantErr := ReadFrame(bytes.NewReader(frameBytes(body)))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decode %x: err = %v, ReadFrame err = %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrBadFrame) || !errors.Is(wantErr, ErrBadFrame) {
			t.Fatalf("decode %x: errors %v / %v, want ErrBadFrame", body, gotErr, wantErr)
		}
		return false
	}
	if got.ID != want.ID || got.Type != want.Type || got.ReqID != want.ReqID ||
		got.Span != want.Span || got.Error != want.Error || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("decode %x:\n  in place  %+v\n  ReadFrame %+v", body, got, *want)
	}
	var out bytes.Buffer
	if err := WriteFrame(&out, want); err != nil {
		t.Fatalf("re-encode of %+v: %v", *want, err)
	}
	if !bytes.Equal(out.Bytes()[4:], body) {
		t.Fatalf("decode %x re-encodes as %x", body, out.Bytes()[4:])
	}
	return true
}

func TestDecodeEnvelopeEdgeCases(t *testing.T) {
	full := frameBody(t, 300, TypeLookup, "r-1", "client-0", "boom", []byte{1, 'x'})
	for _, tc := range []struct {
		body []byte
		ok   bool
	}{
		{frameBody(t, 0, TypeOK, "", "", "", nil), true},
		{frameBody(t, math.MaxUint64, TypeObsDump, "", "", "", nil), true},
		{full, true},
		{frameBody(t, 1, TypeError, "", "", "x", nil), true},
		{frameBody(t, 1, TypeSetAttr, "héllo→世界", "s\x00pan", "\xff", []byte("any payload")), true},
		{[]byte{1, 0, 0, 0, 0}, false},                              // op 0
		{[]byte{1, byte(len(ops)), 0, 0, 0}, false},                 // past the code table
		{[]byte{1, '"', 0, 0, 0}, false},                            // what a JSON frame has second
		{[]byte{1, 0xff, 0, 0, 0}, false},                           // far past it
		{[]byte{0x80, 0x00, 1, 0, 0, 0}, false},                     // id with a redundant byte
		{append(bytes.Repeat([]byte{0xff}, 10), 1, 0, 0, 0), false}, // id past 64 bits
		{[]byte{1, 1, 5, 'a', 'b'}, false},                          // reqId longer than the frame
		{[]byte{1, 1, 0, 0, 0x80}, false},                           // error length cut short
		{[]byte{1, 1, 0, 0}, false},                                 // no error field
		{[]byte(`{"id":1,"type":"lookup","payload":{"path":"/a"}}`), false},
		{[]byte(`{}`), false},
		{[]byte(`null`), false},
		{[]byte("not a frame at all"), false},
		{nil, false},
	} {
		if got := checkDecodeAgrees(t, tc.body); got != tc.ok {
			t.Errorf("decode %x accepted = %v, want %v", tc.body, got, tc.ok)
		}
	}
	// Cut anywhere before the payload, the envelope is short; after, the
	// payload is (which only its decoder can tell).
	payloadAt := len(full) - 2
	for cut := 0; cut < len(full); cut++ {
		if got := checkDecodeAgrees(t, full[:cut]); got != (cut >= payloadAt) {
			t.Errorf("cut at %d of %d: accepted = %v", cut, len(full), got)
		}
	}
}

// TestDecodeEnvelopeProperty round-trips random envelopes, every op and any
// strings and payload bytes, through the encoder and both decodes.
func TestDecodeEnvelopeProperty(t *testing.T) {
	prop := func(id uint64, op uint8, reqID, span, errStr string, payload []byte) bool {
		msgType := ops[1+int(op)%(len(ops)-1)]
		body := frameBody(t, id, msgType, reqID, span, errStr, payload)
		if !checkDecodeAgrees(t, body) {
			return false
		}
		var env Envelope
		_ = decodeRequest(body, &env)
		return env.ID == id && env.Type == msgType && env.ReqID == reqID && env.Span == span &&
			env.Error == errStr && bytes.Equal(env.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOpCodes pins the code table: every op decodes to its own constant,
// and a frame's op byte is its index.
func TestOpCodes(t *testing.T) {
	for code := 1; code < len(ops); code++ {
		if got := opCode(ops[code]); int(got) != code {
			t.Errorf("opCode(%q) = %d, want %d", ops[code], got, code)
		}
		body := frameBody(t, 7, ops[code], "", "", "", nil)
		if body[binary.PutUvarint(make([]byte, binary.MaxVarintLen64), 7)] != byte(code) {
			t.Errorf("%s is not written as code %d: %x", ops[code], code, body)
		}
	}
	if opCode("") != 0 || opCode(TypeTransfer) != 0 || opCode("no-such-op") != 0 {
		t.Error("a type that is no frame op has a code")
	}
	if len(ops) > '"' {
		t.Error("the code table reaches '\"': a JSON frame would parse as an op")
	}
}
