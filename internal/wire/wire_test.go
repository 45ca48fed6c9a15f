package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	env, err := NewEnvelope(7, TypeLookup, &LookupRequest{Path: "/a/b"})
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
	if got.ID != 7 || got.Type != TypeLookup {
		t.Errorf("envelope = %+v", got)
	}
	var req LookupRequest
	if err := got.Decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.Path != "/a/b" {
		t.Errorf("path = %q", req.Path)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	// reqID, span and the payload's path are arbitrary strings: the frame
	// carries their bytes as they are, whatever they hold.
	prop := func(id uint64, path, reqID, span string, size int64) bool {
		env, err := NewEnvelope(id, TypeSetAttr, &SetAttrRequest{Path: path, Size: size})
		if err != nil {
			return false
		}
		env.ReqID = reqID
		env.Span = span
		var buf bytes.Buffer
		if err := WriteFrame(&buf, env); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		var req SetAttrRequest
		if err := got.Decode(&req); err != nil {
			return false
		}
		return got.ID == id && got.ReqID == reqID && got.Span == span &&
			req.Path == path && req.Size == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWriteFrameRejectsInvalidPayload: what cannot be framed is refused
// with nothing written — an op with no code, a payload type with no codec,
// a payload past MaxFrameSize.
func TestWriteFrameRejectsInvalidPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Envelope{ID: 1, Type: "no-such-op", Payload: []byte{0}}); err == nil || buf.Len() != 0 {
		t.Errorf("frame with no op code: err = %v, %d bytes written", err, buf.Len())
	}
	if err := WriteFrame(&buf, &Envelope{ID: 1, Type: TypeOK, Payload: make([]byte, MaxFrameSize)}); !errors.Is(err, ErrFrameTooLarge) || buf.Len() != 0 {
		t.Errorf("oversized payload: err = %v, %d bytes written", err, buf.Len())
	}
	if _, err := NewEnvelope(1, TypeOK, map[string]int{"load": 3}); !errors.Is(err, errNoCodec) {
		t.Errorf("payload with no codec: err = %v", err)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 5; i++ {
		env, _ := NewEnvelope(i, TypeOK, nil)
		if err := WriteFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		env, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if env.ID != i {
			t.Errorf("frame %d has ID %d", i, env.ID)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	buf.Write(hdr[:])
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("want ErrFrameTooLarge, got %v", err)
	}
}

// TestReadFrameRejectsGarbageJSON: a JSON frame, as an older peer would send
// one, is a bad frame.
func TestReadFrameRejectsGarbageJSON(t *testing.T) {
	var buf bytes.Buffer
	body := []byte(`{"id":1,"type":"lookup","payload":{"path":"/a"}}`)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrBadFrame) {
		t.Errorf("want ErrBadFrame, got %v", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("short")
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestErrorEnvelope(t *testing.T) {
	env := ErrorEnvelope(3, errors.New("boom"))
	if env.Type != TypeError || env.Error != "boom" || env.ID != 3 {
		t.Errorf("envelope = %+v", env)
	}
	var out LookupResponse
	if err := env.Decode(&out); err == nil {
		t.Error("Decode of error envelope should fail")
	}
}

func TestDecodeEmptyPayload(t *testing.T) {
	env := &Envelope{ID: 1, Type: TypeOK}
	var out struct{}
	if err := env.Decode(&out); err != nil {
		t.Errorf("empty payload decode: %v", err)
	}
}
