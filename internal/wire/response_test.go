package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// twoStepResponse is the public two-step path a response can also take:
// ReadFrame builds an Envelope (copying the payload out of the body), a
// non-empty Error becomes a RemoteError, and Envelope.Decode fills out. It is
// the reference the single-pass decodeResponse is held to.
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

// responseOuts returns makers of a fresh value of every type a response can
// be decoded into, and of no out at all.
func responseOuts() []func() interface{} {
	var mks []func() interface{}
	for _, proto := range codecTypes {
		typ := reflect.TypeOf(proto).Elem()
		mks = append(mks, func() interface{} { return reflect.New(typ).Interface() })
	}
	return append(mks, func() interface{} { return nil })
}

// checkResponseAgrees decodes body both ways into fresh values of every out
// type and requires the same error (text included: a bad frame, a
// RemoteError and a payload decode error are told apart by it), the same
// decoded value, and the ID the demultiplexer reads off the front. Values are
// compared by their encodings, which differ whenever they do: a NaN load
// equals itself there.
func checkResponseAgrees(t *testing.T, body []byte) {
	t.Helper()
	for _, mk := range responseOuts() {
		got, want := mk(), mk()
		gotErr := decodeResponse(body, TypeLookup, got)
		wantID, wantErr := twoStepResponse(body, TypeLookup, want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("decode %x into %T:\n  single pass err = %v\n  two step err    = %v", body, got, gotErr, wantErr)
		}
		if IsRemote(gotErr) != IsRemote(wantErr) || errors.Is(gotErr, ErrBadFrame) != errors.Is(wantErr, ErrBadFrame) {
			t.Fatalf("decode %x into %T: error classification differs: %v / %v", body, got, gotErr, wantErr)
		}
		if errors.Is(wantErr, ErrBadFrame) {
			continue // a bad frame has no ID
		}
		if id, err := peekFrameID(body); err != nil || id != wantID {
			t.Fatalf("decode %x: peeked id %d (%v), envelope id %d", body, id, err, wantID)
		}
		if got != nil && !bytes.Equal(encode(t, got), encode(t, want)) {
			t.Fatalf("decode %x into %T:\n  single pass %+v\n  two step    %+v", body, got, got, want)
		}
	}
}

// responseSeeds are the bodies the differential test and the fuzz target
// start from: an ok response around a filled value of every message type,
// error and empty responses, and bodies that are no frame, JSON among them.
func responseSeeds(t testing.TB) [][]byte {
	f := &filler{rng: rand.New(rand.NewSource(27))}
	var seeds [][]byte
	for i, proto := range codecTypes {
		body, err := appendMessage(nil, uint64(i*1000), TypeOK, "r-1", "mds-0", f.filled(proto))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	seeds = append(seeds,
		appendErrorMessage(nil, 5, "r-5", "mds-1", errors.New("server: path not found")),
		appendErrorMessage(nil, 6, "", "", errors.New("")),
		frameBody(t, 7, TypeOK, "", "", "", nil),
		frameBody(t, 8, TypeOK, "", "", "", []byte{0}),
		frameBody(t, 9, TypeLookup, "c0-42", "client-1", "", encode(t, &LookupRequest{Path: "/a"})),
		[]byte(`{"id":12,"type":"ok","payload":{"entry":{"path":"/a","kind":1,"version":7}}}`),
		[]byte(`{"id":1,"type":"ok"`),
		[]byte("not a frame at all"),
		[]byte{0x80},
		[]byte{},
	)
	return seeds
}

// TestDecodeResponseMatchesTwoStep is the seeded differential test: a call
// that decodes its response in place, in one pass, decodes exactly what the
// two-step path does. Every seed and a run of byte-level mutations of each
// (truncations, flipped and dropped bytes, a repeated or spliced stretch) go
// through both.
func TestDecodeResponseMatchesTwoStep(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, body := range responseSeeds(t) {
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
	case 1: // set one byte to a value that matters to a varint, a flag or an op
		b[at] = []byte{0, 1, 2, 0x7f, 0x80, 0xff}[rng.Intn(6)]
		return b
	case 2: // drop one byte
		return append(b[:at], b[at+1:]...)
	case 3: // repeat a stretch
		end := at + rng.Intn(len(b)-at+1)
		return append(b[:end:end], b[at:]...)
	default: // splice a stretch from elsewhere
		from := rng.Intn(len(b))
		n := rng.Intn(len(b) - from + 1)
		return append(append(b[:at:at], body[from:from+n]...), body[at:]...)
	}
}

// FuzzDecodeResponse differentially fuzzes the single-pass response decode
// against ReadFrame + Envelope.Decode: any disagreement, or a panic, is a
// finding.
func FuzzDecodeResponse(f *testing.F) {
	for _, seed := range responseSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkResponseAgrees(t, body)
	})
}

// TestPeekFrameID pins what the demultiplexer reads off the front of a
// body: the frame's ID, however long its varint, and a refusal for a body
// that cannot open with one.
func TestPeekFrameID(t *testing.T) {
	for _, want := range []uint64{0, 1, 127, 128, 1 << 40, 1<<64 - 1} {
		body := frameBody(t, want, TypeOK, "", "", "", nil)
		if got, err := peekFrameID(body); err != nil || got != want {
			t.Errorf("peekFrameID(%x) = %d, %v; want %d", body, got, err, want)
		}
	}
	for _, body := range [][]byte{
		nil, {0x80}, {0xff, 0xff}, {0x80, 0x00}, bytes.Repeat([]byte{0xff}, 11),
	} {
		if got, err := peekFrameID(body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("peekFrameID(%x) = %d, %v; want ErrBadFrame", body, got, err)
		}
	}
}
