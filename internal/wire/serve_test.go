package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serveOne accepts one connection on a fresh listener and runs serve on it.
func serveOne(t *testing.T, serve func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = nc.Close() }()
		serve(nc)
	}()
	return ln.Addr().String()
}

// echoLookup answers a lookup with its own path.
func echoLookup(env *Envelope) (interface{}, error) {
	var req LookupRequest
	if err := env.Decode(&req); err != nil {
		return nil, err
	}
	return &LookupResponse{Entry: &Entry{Path: req.Path, Version: 1}}, nil
}

// TestInlineOpAnswersWhileBlockingSlotsAreHeld is the head-of-line guard:
// with every blocking slot of a connection held by a handler parked on a
// channel, a lookup the reader runs itself still answers on that connection.
func TestInlineOpAnswersWhileBlockingSlotsAreHeld(t *testing.T) {
	const slots = 2
	entered := make(chan struct{}, slots)
	release := make(chan struct{})
	addr := serveOne(t, func(nc net.Conn) {
		ServeInline(nc, func(env *Envelope) (interface{}, error) {
			if env.Type == TypeSetAttr {
				entered <- struct{}{}
				<-release
				return &SetAttrResponse{}, nil
			}
			return echoLookup(env)
		}, slots, TypeLookup)
	})
	c, err := DialCall(addr, time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var wg sync.WaitGroup
	held := make(chan error, slots)
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held <- c.Call(TypeSetAttr, &SetAttrRequest{Path: "/held"}, nil)
		}()
	}
	for i := 0; i < slots; i++ {
		<-entered
	}
	done := make(chan error, 1)
	go func() {
		var resp LookupResponse
		err := c.Call(TypeLookup, &LookupRequest{Path: "/through"}, &resp)
		if err == nil && (resp.Entry == nil || resp.Entry.Path != "/through") {
			err = errors.New("lookup answered with the wrong entry")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("inline lookup behind held slots: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("inline lookup did not answer while every blocking slot was held")
	}
	close(release)
	wg.Wait()
	close(held)
	for err := range held {
		if err != nil {
			t.Errorf("held setattr: %v", err)
		}
	}
}

// TestBlockingOpBehindInlineBurstIsAnswered pipelines one write holding a
// long burst of inline lookups with a blocking op in the middle of it: the
// reader works through the burst without parking, and the blocking op's
// goroutine must still get to run and have its response written. Every frame
// is answered exactly once.
func TestBlockingOpBehindInlineBurstIsAnswered(t *testing.T) {
	const burst = 2000
	addr := serveOne(t, func(nc net.Conn) {
		ServeInline(nc, func(env *Envelope) (interface{}, error) {
			if env.Type == TypeCreate {
				return &CreateResponse{Entry: &Entry{Path: "/created", Version: 1}}, nil
			}
			return echoLookup(env)
		}, DefaultServeWorkers, TypeLookup)
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	var out bytes.Buffer
	for id := uint64(1); id <= burst; id++ {
		var env *Envelope
		if id == burst/2 {
			env, _ = NewEnvelope(id, TypeCreate, &CreateRequest{Path: "/created"})
		} else {
			env, _ = NewEnvelope(id, TypeLookup, &LookupRequest{Path: "/burst"})
		}
		if err := WriteFrame(&out, env); err != nil {
			t.Fatal(err)
		}
	}
	go func() { _, _ = nc.Write(out.Bytes()) }()
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	seen := make(map[uint64]bool, burst)
	for len(seen) < burst {
		resp, err := ReadFrame(nc)
		if err != nil {
			t.Fatalf("after %d of %d responses: %v", len(seen), burst, err)
		}
		if resp.Error != "" {
			t.Fatalf("response %d: %s", resp.ID, resp.Error)
		}
		if seen[resp.ID] {
			t.Fatalf("response %d written twice", resp.ID)
		}
		seen[resp.ID] = true
	}
	if !seen[burst/2] {
		t.Error("the blocking op in the burst was never answered")
	}
}

// TestInlineAnswerLeavesBeforeReaderWaitsForSlot pipelines, in one write, an
// inline lookup just ahead of a blocking op that finds every slot taken: the
// lookup's answer must leave before the reader waits for a slot, not when
// some handler next finishes.
func TestInlineAnswerLeavesBeforeReaderWaitsForSlot(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	addr := serveOne(t, func(nc net.Conn) {
		ServeInline(nc, func(env *Envelope) (interface{}, error) {
			if env.Type == TypeSetAttr {
				entered <- struct{}{}
				<-release
				return &SetAttrResponse{}, nil
			}
			return echoLookup(env)
		}, 1, TypeLookup)
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	frame := func(id uint64, msgType string, payload interface{}) []byte {
		env, err := NewEnvelope(id, msgType, payload)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, env); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if _, err := nc.Write(frame(1, TypeSetAttr, &SetAttrRequest{Path: "/held"})); err != nil {
		t.Fatal(err)
	}
	<-entered // the one slot is taken
	burst := append(frame(2, TypeLookup, &LookupRequest{Path: "/through"}),
		frame(3, TypeSetAttr, &SetAttrRequest{Path: "/starved"})...)
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := ReadFrame(nc)
	if err != nil {
		t.Fatalf("inline answer held back while the reader waited for a slot: %v", err)
	}
	if resp.ID != 2 {
		t.Fatalf("first response is to frame %d, want the lookup (2)", resp.ID)
	}
	close(release)
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for _, want := range []uint64{1, 3} {
		resp, err := ReadFrame(nc)
		if err != nil {
			t.Fatalf("setattr %d: %v", want, err)
		}
		if resp.ID != want || resp.Error != "" {
			t.Errorf("got response %d (error %q), want %d", resp.ID, resp.Error, want)
		}
	}
}

// TestServeFlushesLargeAndOversizedFrames covers the two ways out of the
// reader's in-place decode: a request larger than the read buffer is read
// into a buffer of its own, and a response larger than the write buffer's
// flush mark leaves before the input is drained.
func TestServeFlushesLargeAndOversizedFrames(t *testing.T) {
	addr := serveOne(t, func(nc net.Conn) { ServeInline(nc, echoLookup, 1, TypeLookup) })
	c, err := DialCall(addr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for _, size := range []int{1, connBufSize - 64, connBufSize, 3 * connBufSize, 2 * readBodyChunk} {
		path := "/" + string(bytes.Repeat([]byte{'p'}, size))
		var resp LookupResponse
		if err := c.Call(TypeLookup, &LookupRequest{Path: path}, &resp); err != nil {
			t.Fatalf("path of %d bytes: %v", size, err)
		}
		if resp.Entry == nil || resp.Entry.Path != path {
			t.Fatalf("path of %d bytes came back changed", size)
		}
	}
}

// TestServeRejectsGarbageStream: a body that is not an envelope ends the
// connection instead of being answered.
func TestServeRejectsGarbageStream(t *testing.T) {
	addr := serveOne(t, func(nc net.Conn) { ServeInline(nc, echoLookup, 1, TypeLookup) })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	if _, err := nc.Write(frameBytes([]byte("not json at all"))); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(nc); !errors.Is(err, io.EOF) {
		t.Errorf("read after a garbage frame = %v, want EOF", err)
	}
}

// startHolding serves lookups, parking the handler of any path that starts
// with "/hold" until the returned release is closed.
func startHolding(t *testing.T) (addr string, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = nc.Close() }()
				Serve(nc, func(env *Envelope) (interface{}, error) {
					var req LookupRequest
					if err := env.Decode(&req); err != nil {
						return nil, err
					}
					if len(req.Path) >= 5 && req.Path[:5] == "/hold" {
						<-release
					}
					return &LookupResponse{Entry: &Entry{Path: req.Path, Version: 1}}, nil
				})
			}()
		}
	}()
	return ln.Addr().String(), release
}

// TestSweeperPoisonsWhenOldestCallExpires: a call whose response never comes
// fails no earlier than the timeout and no later than a quarter past it,
// with the bare timeout error; the connection is poisoned, and every other
// pending call — issued later, so not yet due itself — fails at that moment
// with an error that is both a timeout and a broken connection.
func TestSweeperPoisonsWhenOldestCallExpires(t *testing.T) {
	const timeout = 800 * time.Millisecond
	addr, release := startHolding(t)
	defer close(release)
	c, err := DialCall(addr, time.Second, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	type outcome struct {
		err     error
		elapsed time.Duration
	}
	start := time.Now()
	call := func(path string, into chan<- outcome) {
		err := c.Call(TypeLookup, &LookupRequest{Path: path}, nil)
		into <- outcome{err, time.Since(start)}
	}
	first := make(chan outcome, 1)
	go call("/hold/first", first)
	time.Sleep(timeout / 4)
	const later = 3
	rest := make(chan outcome, later)
	for i := 0; i < later; i++ {
		go call("/hold/later", rest)
	}

	got := <-first
	if !IsTimeout(got.err) {
		t.Errorf("expired call failed with %v, want a timeout", got.err)
	}
	if got.elapsed < timeout || got.elapsed > timeout+timeout/4 {
		t.Errorf("expired call failed after %v, want within [%v, %v]", got.elapsed, timeout, timeout+timeout/4)
	}
	for i := 0; i < later; i++ {
		got := <-rest
		if !IsTimeout(got.err) || !errors.Is(got.err, ErrConnBroken) {
			t.Errorf("pending call failed with %v, want a timeout that matches ErrConnBroken", got.err)
		}
		if got.elapsed > timeout+timeout/4 {
			t.Errorf("pending call failed after %v, want it failed with the expired one", got.elapsed)
		}
	}
	if !c.Broken() {
		t.Error("conn not poisoned by the expired call")
	}
}

// TestSweeperFollowsOldestPendingCall: the sweeper is re-armed for the call
// that is oldest when it goes off, not for the one it was set for. A
// connection that carries nothing but answered calls for five timeouts, goes
// idle for two more and is used again is never poisoned.
func TestSweeperFollowsOldestPendingCall(t *testing.T) {
	const timeout = 100 * time.Millisecond
	addr := startEcho(t)
	c, err := DialCall(addr, time.Second, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	stop := time.Now().Add(5 * timeout)
	for g := 0; g < cap(errs); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				var resp LookupResponse
				if err := c.Call(TypeLookup, &LookupRequest{Path: "/busy"}, &resp); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("call on a healthy connection: %v", err)
	}
	time.Sleep(2 * timeout)
	if c.Broken() {
		t.Fatal("sweeper poisoned a connection whose every call was answered")
	}
	if err := c.Call(TypeLookup, &LookupRequest{Path: "/after-idle"}, nil); err != nil {
		t.Errorf("call after an idle stretch: %v", err)
	}
}

// TestSetCallTimeoutAppliesToLaterCallsOnly, both ways round: a call keeps
// the deadline it was issued under when the timeout is raised after it, and
// a call issued after the timeout was lowered expires on the new one even
// though the sweeper was armed for an older, later deadline.
func TestSetCallTimeoutAppliesToLaterCallsOnly(t *testing.T) {
	const short, long = 150 * time.Millisecond, 30 * time.Second
	hold := func(c *Conn) <-chan error {
		done := make(chan error, 1)
		go func() { done <- c.Call(TypeLookup, &LookupRequest{Path: "/hold"}, nil) }()
		return done
	}
	waitPending := func(c *Conn, n int) {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			c.mu.Lock()
			pending := len(c.pending)
			c.mu.Unlock()
			if pending == n {
				return
			}
		}
		t.Fatalf("never saw %d pending calls", n)
	}
	t.Run("raised after the call", func(t *testing.T) {
		addr, release := startHolding(t)
		defer close(release)
		c, err := DialCall(addr, time.Second, short)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		start := time.Now()
		done := hold(c)
		waitPending(c, 1)
		c.SetCallTimeout(long)
		select {
		case err := <-done:
			if !IsTimeout(err) {
				t.Errorf("call failed with %v, want its own timeout", err)
			}
			if elapsed := time.Since(start); elapsed < short {
				t.Errorf("call expired after %v, before its %v deadline", elapsed, short)
			}
		case <-time.After(5 * time.Second):
			t.Error("call issued under the short timeout adopted the long one")
		}
	})
	t.Run("lowered before the call", func(t *testing.T) {
		addr, release := startHolding(t)
		defer close(release)
		c, err := DialCall(addr, time.Second, long)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		early := hold(c)
		waitPending(c, 1)
		c.SetCallTimeout(short)
		start := time.Now()
		late := hold(c)
		select {
		case err := <-late:
			if !IsTimeout(err) || errors.Is(err, ErrConnBroken) {
				t.Errorf("later call failed with %v, want the bare timeout of the call that expired", err)
			}
			if elapsed := time.Since(start); elapsed < short {
				t.Errorf("later call expired after %v, before its %v deadline", elapsed, short)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("call issued under the short timeout waited on the long one")
		}
		if err := <-early; !IsTimeout(err) || !errors.Is(err, ErrConnBroken) {
			t.Errorf("earlier call failed with %v, want the poisoned connection's timeout", err)
		}
	})
}

// heldWriteConn is a connection whose writes, once hold is set, announce
// themselves on inWrite and wait for resume, then report on torn whether the
// bytes they were given changed while they waited.
type heldWriteConn struct {
	net.Conn
	hold            atomic.Bool
	inWrite, resume chan struct{}
	torn            chan bool
}

func (h *heldWriteConn) Write(p []byte) (int, error) {
	if h.hold.Load() {
		before := append([]byte(nil), p...)
		h.inWrite <- struct{}{}
		<-h.resume
		h.torn <- !bytes.Equal(before, p)
	}
	return h.Conn.Write(p)
}

// TestConnWriteBuffersNeverAlias: a frame too large for its write buffer to
// be kept (a big Batch, Install or GL update) must not leave the flusher
// holding one buffer as both the one on the wire and the one callers fill.
// After such a frame, a call is encoded while the write of the call before it
// is still in progress; that write's bytes must not change under it.
func TestConnWriteBuffersNeverAlias(t *testing.T) {
	addr := serveOne(t, func(nc net.Conn) { ServeInline(nc, echoLookup, 1, TypeLookup) })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	h := &heldWriteConn{Conn: nc, inWrite: make(chan struct{}), resume: make(chan struct{}), torn: make(chan bool, 1)}
	c := NewConn(h)
	c.SetCallTimeout(10 * time.Second)
	defer func() { _ = c.Close() }()
	lookup := func(path string) error {
		var resp LookupResponse
		if err := c.Call(TypeLookup, &LookupRequest{Path: path}, &resp); err != nil {
			return err
		}
		if resp.Entry == nil || resp.Entry.Path != path {
			return errors.New("path of " + strconv.Itoa(len(path)) + " bytes came back changed")
		}
		return nil
	}
	// Both write buffers in rotation, then the frame neither can hold.
	for _, path := range []string{"/warm1", "/warm2", "/warm3", "/" + string(bytes.Repeat([]byte{'p'}, 2*readBodyChunk))} {
		if err := lookup(path); err != nil {
			t.Fatal(err)
		}
	}
	h.hold.Store(true)
	errs := make(chan error, 2)
	go func() { errs <- lookup("/on-the-wire") }()
	<-h.inWrite
	go func() { errs <- lookup("/encoded-meanwhile") }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		n := c.wframes
		c.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second call never encoded its frame")
		}
	}
	h.hold.Store(false)
	h.resume <- struct{}{}
	if <-h.torn {
		t.Error("a call was encoded over the bytes of a write in progress")
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestConnDecodesResponseWhoseIDIsNotInFront: a peer that writes its envelope
// keys in another order, or with whitespace, is still answered through the
// one response decode — the demultiplexer only has to work harder for the ID.
func TestConnDecodesResponseWhoseIDIsNotInFront(t *testing.T) {
	bodies := []string{
		`{"type":"ok","id":%d,"payload":{"entry":{"path":"/a","version":1}}}`,
		` { "id" : %d , "type" : "ok" , "payload" : {"entry":{"path":"/a","version":1}} } `,
		`{"type":"error","id":%d,"error":"no such entry"}`,
		`{"type":"ok","extra":[1,2],"id":%d,"payload":{"entry":{"path":"/a","version":1}}}`,
	}
	addr := serveOne(t, func(nc net.Conn) {
		for _, body := range bodies {
			env, err := ReadFrame(nc)
			if err != nil {
				return
			}
			_, _ = nc.Write(frameBytes([]byte(fmt.Sprintf(body, env.ID))))
		}
		_, _ = ReadFrame(nc) // hold the connection open until the client is done
	})
	c, err := DialCall(addr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for _, body := range bodies {
		var resp LookupResponse
		err := c.Call(TypeLookup, &LookupRequest{Path: "/a"}, &resp)
		if strings.Contains(body, `"error"`) {
			var re *RemoteError
			if !errors.As(err, &re) || re.Msg != "no such entry" || re.MsgType != TypeLookup {
				t.Errorf("%s: err = %v, want the peer's RemoteError", body, err)
			}
			continue
		}
		if err != nil || resp.Entry == nil || resp.Entry.Path != "/a" {
			t.Errorf("%s: resp = %+v, err = %v", body, resp.Entry, err)
		}
	}
	if c.Broken() {
		t.Error("connection poisoned by a well-formed response in another key order")
	}
}
