package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"runtime"
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
	env, err := NewEnvelope(7, TypeHeartbeat, map[string]int{"load": 3})
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&buf, env); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Corrupt shapes: empty input, short header, truncated body, length
	// prefix larger than the payload, non-JSON body, huge claimed size.
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(frameBytes([]byte(`{"id":1,"type":"ok"`))[:8])
	f.Add(append(frameBytes(nil), 'x'))
	f.Add(frameBytes([]byte("not json at all")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(frameBytes([]byte(`{"id":18446744073709551615,"type":"\u0000"}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // any malformed input must fail cleanly, never panic
		}
		// Successfully decoded frames must survive a re-encode/decode cycle.
		var out bytes.Buffer
		if err := WriteFrame(&out, env); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
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

// FuzzFastDecodeEnvelope differentially fuzzes the hand envelope parser
// against encoding/json: whenever the fast path accepts an input, the
// resulting envelope must match what a json.Unmarshal of the same bytes
// produces, field for field. Declining is always safe — production code
// falls back — so only accept-and-disagree (or a panic) is a finding.
func FuzzFastDecodeEnvelope(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":7,"type":"heartbeat"}`))
	f.Add([]byte(`{"id":7,"type":"lookup","reqId":"c0-42","span":"mds-1","payload":{"path":"/a"}}`))
	f.Add([]byte(`{"id":1,"type":"error","error":"server: path not found"}`))
	f.Add([]byte("{\"id\":18446744073709551615,\"type\":\"\\u0000\"}"))
	f.Add([]byte(`{"type":"ok","id":3,"payload":[1,2,{"k":"v"}]}`))
	f.Add([]byte(`{"id":2,"type":"ok","payload":"quoted \"string\" payload"}`))
	f.Add([]byte(`{"id":3,"unknownKey":1}`))
	f.Add([]byte(` { "id" : 4 , "type" : "ok" } `))
	f.Add([]byte(`{"id":-1,"type":"ok"}`))
	f.Add([]byte(`{"id":5,"type":"ok","payload":{"nested":{"deep":[null,true,1.5]}}}`))
	f.Add([]byte(`{"id":6,"type":"ok"`))
	// Compound-op payload shapes: batched sub-ops, entry lists, hot deltas.
	f.Add([]byte(`{"id":8,"type":"batch","payload":{"ops":[{"op":"lookup","path":"/a"},{"op":"create","path":"/b","kind":2,"size":1,"mode":420}],"hotPaths":{"/a":3}}}`))
	f.Add([]byte(`{"id":9,"type":"batch","payload":{"results":[{"entry":{"path":"/a","kind":1,"version":2},"leaseMs":2000,"indexVer":3},{"redirect":"addr"},{"err":"boom"}]}}`))
	f.Add([]byte(`{"id":10,"type":"readdir_plus","payload":{"entries":[{"path":"/a/b","kind":2,"size":4,"mode":420,"version":1}],"dirVersion":7,"leaseMs":2000,"indexVer":3}}`))
	f.Add([]byte(`{"id":11,"type":"create_attrs","payload":{"path":"/a","kind":2,"size":9,"mode":384}}`))
	// The write path: a setattr with zero attributes, and the gl_update pair.
	f.Add([]byte(`{"id":12,"type":"setattr","reqId":"c0-43","span":"client-1","payload":{"path":"/a","size":0,"mode":0}}`))
	f.Add([]byte(`{"id":13,"type":"gl_update","reqId":"c0-43","span":"mds-0","payload":{"serverId":1,"op":"setattr","entry":{"path":"/gl/a","kind":0,"size":7,"mode":420,"version":0}}}`))
	f.Add([]byte(`{"id":13,"type":"ok","reqId":"c0-43","span":"mds-0","payload":{"entry":{"path":"/gl/a","kind":1,"size":7,"mode":420,"version":3},"glVersion":41}}`))
	f.Add([]byte(`{"id":12,"type":"ok","reqId":"c0-43","span":"client-1","payload":{"entry":{"path":"/gl/a","kind":1,"size":7,"mode":420,"version":3},"leaseMs":2000,"indexVer":3}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fast Envelope
		if !fastDecodeEnvelope(data, &fast) {
			return
		}
		var ref Envelope
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("fast path accepted %q but encoding/json rejects it: %v", data, err)
		}
		if fast.ID != ref.ID || fast.Type != ref.Type || fast.ReqID != ref.ReqID ||
			fast.Span != ref.Span || fast.Error != ref.Error ||
			!bytes.Equal(fast.Payload, ref.Payload) {
			t.Fatalf("decode %q: fast %+v, json %+v", data, fast, ref)
		}
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
	big := bytes.Repeat([]byte("x"), 200<<10)
	env, err := NewEnvelope(42, TypeInstall, map[string]string{"blob": string(big)})
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
	if got.ID != 42 || got.Type != TypeInstall || !bytes.Equal(got.Payload, env.Payload) {
		t.Fatal("large frame did not round-trip")
	}
}
