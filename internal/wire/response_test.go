package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// twoStepResponse is what a call did with a response before decodeResponse:
// ReadFrame builds an Envelope (copying the payload out of the body), a
// non-empty Error becomes a RemoteError, and Envelope.Decode fills out. Both
// steps stay public — the Monitor's tools and the benchmark's codec rung use
// them — and are the reference the single-pass decode is held to.
func twoStepResponse(body []byte, msgType string, out interface{}) (uint64, error) {
	env, err := ReadFrame(bytes.NewReader(frameBytes(body)))
	if err != nil {
		return 0, err
	}
	if env.Error != "" {
		return env.ID, &RemoteError{MsgType: msgType, Msg: env.Error}
	}
	if out == nil {
		return env.ID, nil
	}
	return env.ID, env.Decode(out)
}

// responseOuts returns fresh values of every type a response is decoded
// into by a distinct route: each type with a hand decoder, one struct and
// one map that ride encoding/json, and no out at all.
func responseOuts() []func() interface{} {
	var mks []func() interface{}
	for _, proto := range fastCodecRegistry() {
		typ := reflect.TypeOf(proto).Elem()
		mks = append(mks, func() interface{} { return reflect.New(typ).Interface() })
	}
	return append(mks,
		func() interface{} { return &StatsResponse{} },
		func() interface{} { return &map[string]interface{}{} },
		func() interface{} { return nil },
	)
}

// checkResponseAgrees decodes body both ways into fresh values of every out
// type and requires the same frame ID, the same error (text included: a bad
// frame, a RemoteError and a payload decode error are told apart by it) and
// the same decoded value.
func checkResponseAgrees(t *testing.T, body []byte) {
	t.Helper()
	for _, mk := range responseOuts() {
		got, want := mk(), mk()
		gotID, gotErr := decodeResponse(body, TypeLookup, got)
		wantID, wantErr := twoStepResponse(body, TypeLookup, want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("decode %q into %T:\n  single pass err = %v\n  two step err    = %v", body, got, gotErr, wantErr)
		}
		if IsRemote(gotErr) != IsRemote(wantErr) {
			t.Fatalf("decode %q into %T: RemoteError classification differs", body, got)
		}
		if wantErr != nil && wantID == 0 {
			continue // a bad frame has no ID
		}
		if gotID != wantID {
			t.Fatalf("decode %q into %T: id %d, two step %d", body, got, gotID, wantID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %q into %T:\n  single pass %+v\n  two step    %+v", body, got, got, want)
		}
	}
}

// responseSeeds are the bodies the differential test and the fuzz target
// start from: the corpora of FuzzDecodeFrame and FuzzFastDecodeEnvelope (as
// bodies), and one of each shape the two decodes could plausibly disagree
// on.
func responseSeeds() [][]byte {
	seeds := []string{
		// FuzzDecodeFrame.
		`{"id":7,"type":"heartbeat","payload":{"load":3}}`,
		`{"id":1,"type":"ok"`,
		`not json at all`,
		"{\"id\":18446744073709551615,\"type\":\"\\u0000\"}",
		// FuzzFastDecodeEnvelope.
		`{}`,
		`{"id":7,"type":"heartbeat"}`,
		`{"id":7,"type":"lookup","reqId":"c0-42","span":"mds-1","payload":{"path":"/a"}}`,
		`{"id":1,"type":"error","error":"server: path not found"}`,
		`{"type":"ok","id":3,"payload":[1,2,{"k":"v"}]}`,
		`{"id":2,"type":"ok","payload":"quoted \"string\" payload"}`,
		`{"id":3,"unknownKey":1}`,
		` { "id" : 4 , "type" : "ok" } `,
		`{"id":-1,"type":"ok"}`,
		`{"id":5,"type":"ok","payload":{"nested":{"deep":[null,true,1.5]}}}`,
		`{"id":8,"type":"batch","payload":{"ops":[{"op":"lookup","path":"/a"},{"op":"create","path":"/b","kind":2,"size":1,"mode":420}],"hotPaths":{"/a":3}}}`,
		`{"id":9,"type":"batch","payload":{"results":[{"entry":{"path":"/a","kind":1,"version":2},"leaseMs":2000,"indexVer":3},{"redirect":"addr"},{"err":"boom"}]}}`,
		`{"id":10,"type":"readdir_plus","payload":{"entries":[{"path":"/a/b","kind":2,"size":4,"mode":420,"version":1}],"dirVersion":7,"leaseMs":2000,"indexVer":3}}`,
		`{"id":11,"type":"create_attrs","payload":{"path":"/a","kind":2,"size":9,"mode":384}}`,
		// What a lookup is answered with.
		`{"id":12,"type":"ok","reqId":"r-1","span":"client-1","payload":{"entry":{"path":"/a","kind":1,"size":4096,"mode":420,"version":7},"leaseMs":2000,"indexVer":3}}`,
		`{"id":12,"type":"ok","payload":{"redirect":"127.0.0.1:7481"}}`,
		`{"id":12,"type":"ok","payload":{"match":true,"leaseMs":2000,"indexVer":3}}`,
		// What a setattr, a rename and a gl_update are answered with, and the
		// requests of the write path (a response decoded into a request type
		// is still a decode both paths must agree on).
		`{"id":12,"type":"ok","reqId":"r-2","span":"client-1","payload":{"entry":{"path":"/a","kind":2,"mode":420,"version":8},"leaseMs":2000,"indexVer":3}}`,
		`{"id":12,"type":"ok","reqId":"r-2","span":"mds-0","payload":{"entry":{"path":"/gl/a","kind":1,"size":7,"mode":420,"version":3},"glVersion":41}}`,
		`{"id":12,"type":"setattr","reqId":"r-2","span":"client-1","payload":{"path":"/a","size":0,"mode":0}}`,
		`{"id":12,"type":"setattr","payload":{"path":"esc\"aped\u002f","size":-1,"mode":4294967296}}`,
		`{"id":12,"type":"gl_update","reqId":"r-2","span":"mds-0","payload":{"serverId":1,"op":"setattr","entry":{"path":"/gl/a","kind":0,"size":7,"mode":420,"version":0}}}`,
		`{"id":12,"type":"ok","payload":{"entry":{"path":"/a","version":2},"entry":{"kind":1},"glVersion":2,"extra":true}}`,
		// Invalid UTF-8: in a value the caller keeps, in one it drops, in a key.
		"{\"id\":13,\"type\":\"ok\",\"payload\":{\"redirect\":\"a\xffb\"}}",
		"{\"id\":13,\"type\":\"o\xffk\",\"reqId\":\"\xc3\x28\"}",
		"{\"id\":13,\"type\":\"error\",\"error\":\"bad \xff path\"}",
		"{\"id\":13,\"pay\xffload\":{}}",
		// Escaped keys: in the envelope, in the payload, in the entry.
		`{"\u0069d":14,"type":"ok","p\u0061yload":{"redirect":"r"}}`,
		`{"id":14,"type":"ok","payload":{"\u0065ntry":{"p\u0061th":"/a","kind":1,"version":2},"lease\u004ds":5}}`,
		`{"id":14,"type":"ok","payload":{"hotPaths":{"\/esc\u0061ped":1},"ops":[]}}`,
		// Duplicate keys: the ID read off the front is not the one decoded.
		`{"id":15,"id":16,"type":"ok"}`,
		`{"id":15,"type":"ok","payload":{"redirect":"a"},"payload":{"leaseMs":9}}`,
		`{"id":15,"type":"ok","payload":{"entry":{"path":"/a","path":"/b","kind":1,"version":1},"entry":null}}`,
		`{"id":15,"type":"error","error":"first","error":""}`,
		`{"id":15,"type":"ok","error":"","error":"last"}`,
		// Unknown keys: in the envelope, in the payload.
		`{"id":17,"type":"ok","extra":{"a":[1,2]},"payload":{"redirect":"r"}}`,
		`{"id":17,"type":"ok","payload":{"redirect":"r","extra":1}}`,
		// Payloads of the wrong shape for the type decoded into.
		`{"id":18,"type":"ok","payload":null}`,
		`{"id":18,"type":"ok","payload":[]}`,
		`{"id":18,"type":"ok","payload":{"leaseMs":1.5}}`,
		`{"id":18,"type":"ok","payload":{"entry":"nope"}}`,
		`{"id":18,"type":"ok","payload":{"path":"/a"} trailing}`,
		`{"id":18,"type":"ok","payload":{"path":"/a"}} trailing`,
		``,
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// TestDecodeResponseMatchesTwoStep is the seeded differential test: nothing
// decodes differently now that a call reads its response out of the body in
// place. Every seed, every response a server can encode around a random
// payload of every hand-coded type, and a run of byte-level mutations of
// each (truncations, flipped and dropped bytes, a repeated or spliced
// stretch) go through both paths.
func TestDecodeResponseMatchesTwoStep(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	bodies := responseSeeds()
	for _, proto := range fastCodecRegistry() {
		typ := reflect.TypeOf(proto).Elem()
		for i := 0; i < 20; i++ {
			p := reflect.New(typ)
			randomFill(rng, p.Elem())
			body, err := appendMessage(nil, uint64(rng.Intn(1000)), TypeOK,
				trickyStrings[rng.Intn(len(trickyStrings))], "mds-0", p.Interface())
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	bodies = append(bodies, appendErrorMessage(nil, 5, "r-5", "mds-1", ErrBadFrame))
	for _, body := range bodies {
		checkResponseAgrees(t, body)
		for i := 0; i < 25 && len(body) > 0; i++ {
			checkResponseAgrees(t, mutateBody(rng, body))
		}
	}
}

// mutateBody returns a copy of body with one random edit.
func mutateBody(rng *rand.Rand, body []byte) []byte {
	b := append([]byte(nil), body...)
	at := rng.Intn(len(b))
	switch rng.Intn(5) {
	case 0: // truncate
		return b[:at]
	case 1: // flip one byte to another that matters to a JSON scanner
		b[at] = `"\{}[]:,0-.eE tn`[rng.Intn(16)]
		return b
	case 2: // drop one byte
		return append(b[:at], b[at+1:]...)
	case 3: // repeat a stretch (duplicate keys, doubled values)
		end := at + rng.Intn(len(b)-at+1)
		return append(b[:end:end], b[at:]...)
	default: // splice a stretch from elsewhere
		from := rng.Intn(len(b))
		n := rng.Intn(len(b) - from + 1)
		return append(append(b[:at:at], body[from:from+n]...), body[at:]...)
	}
}

// FuzzDecodeResponse differentially fuzzes the single-pass response decode
// against ReadFrame + Envelope.Decode. Unlike the envelope fuzzer there is
// no "declining is always safe" here: decodeResponse is the whole path, its
// fallback included, so any disagreement is a finding.
func FuzzDecodeResponse(f *testing.F) {
	for _, seed := range responseSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkResponseAgrees(t, body)
	})
}

// TestPeekFrameID pins what the demultiplexer reads off the front of a
// body: the ID of a frame written the way every peer writes one, and a
// refusal — the whole envelope is decoded instead — for anything else.
func TestPeekFrameID(t *testing.T) {
	for body, want := range map[string]uint64{
		`{"id":7,"type":"ok"}`:                    7,
		`{"id":18446744073709551615,"type":"ok"}`: 18446744073709551615,
		`{"id":0}`: 0,
	} {
		if got, ok := peekFrameID([]byte(body)); !ok || got != want {
			t.Errorf("peekFrameID(%q) = %d, %v; want %d", body, got, ok, want)
		}
	}
	for _, body := range []string{
		``, `{`, `{"id":`, `{"id":7`, `{"id":07,"type":"ok"}`, `{"id":-1}`, `{"id":1.5}`,
		` {"id":7}`, `{ "id":7}`, `{"type":"ok","id":7}`, `{"id":18446744073709551616}`, `{"id":7x}`,
	} {
		if got, ok := peekFrameID([]byte(body)); ok {
			t.Errorf("peekFrameID(%q) = %d, want a refusal", body, got)
		}
	}
}
