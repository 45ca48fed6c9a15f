package wire

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// benchEnvelope is a representative traced request frame: the shape every
// loadgen/client op puts on the wire.
func benchEnvelope(tb testing.TB) *Envelope {
	tb.Helper()
	env, err := NewEnvelope(7, TypeLookup, &LookupRequest{Path: "/home/user0/project/src/main.go"})
	if err != nil {
		tb.Fatal(err)
	}
	env.ReqID = "c01-000042"
	env.Span = "client-1"
	return env
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	env := benchEnvelope(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, env); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteFrameAllocs pins the encode path's allocation budget: with the
// pooled buffer and the hand-rolled envelope encoder, writing a frame must
// not allocate at steady state. A regression here (an extra marshal, a
// buffer that escapes) shows up as a hard failure, not a silent slowdown.
func TestWriteFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	env := benchEnvelope(t)
	var buf bytes.Buffer
	buf.Grow(1 << 10)
	allocs := testing.AllocsPerRun(500, func() {
		buf.Reset()
		if err := WriteFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("WriteFrame allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFrameRoundTripAllocs bounds the full encode+decode cycle of the public
// two-step path. The decode side necessarily allocates — the Envelope, one
// string for its ReqID and Span, the Payload copy: three, the measured count
// — but the pooled buffer holds header and body alike and the type is the
// code table's constant. The budget is the measured count: a string
// allocated per field again, or a return to per-frame body allocations, is a
// hard failure.
func TestFrameRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	env := benchEnvelope(t)
	var buf bytes.Buffer
	buf.Grow(1 << 10)
	allocs := testing.AllocsPerRun(500, func() {
		buf.Reset()
		if err := WriteFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("frame round trip allocates %.1f objects/op, want <= 3", allocs)
	}
}

// TestCallPathAllocs pins what the serving path allocates per frame now that
// no Envelope is built on either side of a call:
//
//   - encoding a traced request into a connection's write buffer: nothing;
//   - the serving loop's in-place decode of it, and the handler's decode of
//     the payload: one string for the ReqID and the Span, and one copy of the
//     payload, of which the Path is a part;
//   - the caller's decode of the response: the payload copy and the Entry;
//   - the same for a setattr, and for the gl_update hop behind it;
//   - the caller's decode of a listing: the payload copy and the entries,
//     however many children it has.
func TestCallPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	req := &LookupRequest{Path: "/home/user0/project/src/main.go"}
	wbuf := make([]byte, 0, 1<<10)
	encode := testing.AllocsPerRun(500, func() {
		buf, err := appendMessage(beginFrame(wbuf[:0]), 7, TypeLookup, "c01-000042", "client-1", req)
		if err == nil {
			err = endFrame(buf, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		wbuf = buf
	})
	if encode != 0 {
		t.Errorf("request encode into the write buffer allocates %.1f objects/op, want 0", encode)
	}

	request := wbuf[4:]
	var env Envelope
	var got LookupRequest
	serverDecode := testing.AllocsPerRun(500, func() {
		if err := decodeRequest(request, &env); err != nil {
			t.Fatal(err)
		}
		if err := env.Decode(&got); err != nil {
			t.Fatal(err)
		}
	})
	if serverDecode > 2 {
		t.Errorf("server decode of a traced lookup allocates %.1f objects/op, want <= 2 (ReqID and Span, payload)", serverDecode)
	}
	if got.Path != req.Path || env.ReqID != "c01-000042" || env.Span != "client-1" || env.Type != TypeLookup {
		t.Errorf("server decoded %+v / %+v", env, got)
	}

	response, err := appendMessage(nil, 7, TypeOK, "c01-000042", "client-1",
		&LookupResponse{Entry: &Entry{Path: req.Path, Kind: EntryFile, Size: 4096, Mode: 0o644, Version: 7}, LeaseMS: 2000, IndexVer: 3})
	if err != nil {
		t.Fatal(err)
	}
	var resp LookupResponse
	clientDecode := testing.AllocsPerRun(500, func() {
		resp = LookupResponse{}
		if err := decodeResponse(response, TypeLookup, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if clientDecode != 2 {
		t.Errorf("client decode of a LookupResponse allocates %.1f objects/op, want 2 (payload, Entry)", clientDecode)
	}
	if resp.Entry == nil || resp.Entry.Path != req.Path || resp.LeaseMS != 2000 {
		t.Errorf("client decoded %+v", resp)
	}

	// The write path has the same budgets: a setattr request encodes into the
	// write buffer for nothing and decodes on the MDS for two allocations.
	setattr := &SetAttrRequest{Path: req.Path, Size: 4096, Mode: 0o644}
	encode = testing.AllocsPerRun(500, func() {
		buf, err := appendMessage(beginFrame(wbuf[:0]), 8, TypeSetAttr, "c01-000043", "client-1", setattr)
		if err == nil {
			err = endFrame(buf, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		wbuf = buf
	})
	if encode != 0 {
		t.Errorf("setattr request encode into the write buffer allocates %.1f objects/op, want 0", encode)
	}
	request = wbuf[4:]
	var gotSetattr SetAttrRequest
	serverDecode = testing.AllocsPerRun(500, func() {
		if err := decodeRequest(request, &env); err != nil {
			t.Fatal(err)
		}
		if err := env.Decode(&gotSetattr); err != nil {
			t.Fatal(err)
		}
	})
	if serverDecode > 2 {
		t.Errorf("server decode of a traced setattr allocates %.1f objects/op, want <= 2 (ReqID and Span, payload)", serverDecode)
	}
	if gotSetattr != *setattr || env.Type != TypeSetAttr {
		t.Errorf("server decoded %+v / %+v", env, gotSetattr)
	}

	// The hop a global-layer setattr triggers, MDS → Monitor → MDS: all four
	// codec steps together allocate the Monitor's copy of the ReqID and Span
	// and of the payload, and the MDS's copy of the payload it is answered
	// with.
	glReq := &GLUpdateRequest{ServerID: 1, Op: "setattr", Entry: Entry{Path: req.Path, Size: 4096, Mode: 0o644}}
	glResp := &GLUpdateResponse{Entry: Entry{Path: req.Path, Kind: EntryFile, Size: 4096, Mode: 0o644, Version: 8}, GLVersion: 41}
	var gotReq GLUpdateRequest
	var gotResp GLUpdateResponse
	rbuf := make([]byte, 0, 1<<10)
	roundTrip := testing.AllocsPerRun(500, func() {
		buf, err := appendMessage(wbuf[:0], 9, TypeGLUpdate, "c01-000043", "mds-1", glReq)
		if err != nil {
			t.Fatal(err)
		}
		wbuf = buf
		if err := decodeRequest(wbuf, &env); err != nil {
			t.Fatal(err)
		}
		if err := env.Decode(&gotReq); err != nil {
			t.Fatal(err)
		}
		if rbuf, err = appendMessage(rbuf[:0], env.ID, TypeOK, env.ReqID, env.Span, glResp); err != nil {
			t.Fatal(err)
		}
		if err := decodeResponse(rbuf, TypeGLUpdate, &gotResp); err != nil {
			t.Fatal(err)
		}
	})
	if roundTrip > 3 {
		t.Errorf("gl_update round trip allocates %.1f objects/op, want <= 3 (ReqID and Span, payload; payload)", roundTrip)
	}
	if gotReq != *glReq || gotResp != *glResp {
		t.Errorf("gl_update round trip decoded %+v / %+v", gotReq, gotResp)
	}

	for _, children := range []int{1, 32} {
		listing := readdirPlusListing(children)
		body, err := appendMessage(nil, 10, TypeOK, "", "", listing)
		if err != nil {
			t.Fatal(err)
		}
		var out ReaddirPlusResponse
		if allocs := testing.AllocsPerRun(500, func() {
			out = ReaddirPlusResponse{}
			if err := decodeResponse(body, TypeReaddirPlus, &out); err != nil {
				t.Fatal(err)
			}
		}); allocs != 2 {
			t.Errorf("client decode of a %d-child listing allocates %.1f objects/op, want 2 (payload, entries)", children, allocs)
		}
		if !reflect.DeepEqual(&out, listing) {
			t.Errorf("%d-child listing decoded as %+v", children, out)
		}
	}
}

// readdirPlusListing is a listing of children files under one directory,
// as an MDS answers a ReaddirPlus.
func readdirPlusListing(children int) *ReaddirPlusResponse {
	resp := &ReaddirPlusResponse{DirVersion: 7, LeaseMS: 2000, IndexVer: 3}
	for i := 0; i < children; i++ {
		resp.Entries = append(resp.Entries, Entry{
			Path: fmt.Sprintf("/home/user0/project/src/file%02d.go", i),
			Kind: EntryFile, Size: 4096 + int64(i), Mode: 0o644, Version: int64(1 + i),
		})
	}
	return resp
}

// BenchmarkReaddirPlusCodec is the codec rung under lmbe_ls: an 8-child
// ReaddirPlus response encoded into a reused write buffer, as the serving
// loop does, and decoded as the calling side does. It reports ns/op and
// allocs/op for the pair.
func BenchmarkReaddirPlusCodec(b *testing.B) {
	listing := readdirPlusListing(8)
	buf := make([]byte, 0, 4<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := appendMessage(buf[:0], uint64(i), TypeOK, "c01-000042", "client-1", listing)
		if err != nil {
			b.Fatal(err)
		}
		var out ReaddirPlusResponse
		if err := decodeResponse(body, TypeReaddirPlus, &out); err != nil {
			b.Fatal(err)
		}
		if len(out.Entries) != 8 {
			b.Fatal("listing lost entries")
		}
		buf = body
	}
}

// BenchmarkEchoInproc is a lookup round trip over loopback, Conn.Call to the
// serving loop and back in one process, with the handler run by the reader
// (inline) or on a goroutine of its own (blocking), from 1 caller and from
// 16 sharing the connection. Beside ns/op it reports allocs/op for the whole
// round trip, both sides, and the frames the calling side's flusher and the
// serving side put in each write: the gather-then-flush rule at work, 1 at
// one caller and several at 16.
func BenchmarkEchoInproc(b *testing.B) {
	canned := &LookupResponse{
		Entry:   &Entry{Path: "/bench/echo", Kind: EntryFile, Size: 4096, Mode: 0o644, Version: 7},
		LeaseMS: 2000, IndexVer: 3,
	}
	handler := func(*Envelope) (interface{}, error) { return canned, nil }
	for _, mode := range []struct {
		name   string
		inline []string
	}{{"inline", []string{TypeLookup}}, {"blocking", nil}} {
		for _, callers := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/callers=%d", mode.name, callers), func(b *testing.B) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				served := make(chan struct{})
				go func() {
					defer close(served)
					nc, err := ln.Accept()
					if err != nil {
						return
					}
					ServeInline(nc, handler, DefaultServeWorkers, mode.inline...)
					_ = nc.Close()
				}()
				c, err := DialCall(ln.Addr().String(), time.Second, 10*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				req := &LookupRequest{Path: "/bench/echo"}
				before, serveBefore := ConnIO.Snapshot(), ServeIO.Snapshot()
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < callers; g++ {
					n := b.N / callers
					if g < b.N%callers {
						n++
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < n; i++ {
							var resp LookupResponse
							if err := c.Call(TypeLookup, req, &resp); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				after, serveAfter := ConnIO.Snapshot(), ServeIO.Snapshot()
				if w := after.Writes - before.Writes; w > 0 {
					b.ReportMetric(float64(after.FramesOut-before.FramesOut)/float64(w), "frames/write")
				}
				if w := serveAfter.Writes - serveBefore.Writes; w > 0 {
					b.ReportMetric(float64(serveAfter.FramesOut-serveBefore.FramesOut)/float64(w), "served-frames/write")
				}
				_ = c.Close()
				_ = ln.Close()
				<-served
			})
		}
	}
}
