package wire

import (
	"bufio"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
)

// Handler processes one request envelope and returns the response payload
// or an error.
type Handler func(env *Envelope) (interface{}, error)

// DefaultServeWorkers bounds the handlers that may block running at once per
// connection: enough that a journaled SetAttr waiting for its fsync does not
// hold up the next one behind it on the same connection, small enough that
// one connection cannot flood the process with goroutines.
const DefaultServeWorkers = 8

// Serve runs a per-connection serving loop with up to DefaultServeWorkers
// concurrent handlers. It returns when the peer disconnects or a transport
// error occurs.
func Serve(nc net.Conn, h Handler) {
	ServeInline(nc, h, DefaultServeWorkers)
}

// ServeWorkers runs a per-connection serving loop dispatching up to workers
// requests concurrently. Responses may be written in any order; the
// multiplexed client matches them by frame ID.
func ServeWorkers(nc net.Conn, h Handler, workers int) {
	ServeInline(nc, h, workers)
}

// ServeInline is the serving loop. One goroutine reads the connection and
// takes every frame to completion or hands it off, once:
//
//   - A request whose type is listed in inline is run by the reader itself:
//     decoded in place in the read buffer, handled, and its response encoded
//     straight into the connection's write buffer. The caller lists exactly
//     the ops whose handlers cannot block (d2vet's inlinecheck holds it to
//     that): while one runs, nothing else on this connection is read. Such a
//     handler must not keep env or its Payload, which alias the read buffer.
//   - Every other request gets a goroutine of its own, at most workers of
//     them at a time, with a copy of the frame that is its to keep. It may
//     wait on a WAL ticket, a lock or another RPC, and appends its response
//     to the same write buffer when it is done.
//
// Nothing is inline unless the caller says so. The write buffer is flushed
// by the reader whenever it is about to block — its input drained, or every
// slot taken — so the responses to a pipelined burst leave in one write as
// the burst arrived in one read; a blocking op that finishes while the
// reader is parked flushes for itself, after yielding once if others are
// still running so that they share the write. ServeInline returns once the
// peer disconnects or a transport error occurs and every handler has
// returned.
func ServeInline(nc net.Conn, h Handler, workers int, inline ...string) {
	if workers < 1 {
		workers = 1
	}
	s := &serveConn{
		nc:     nc,
		br:     bufio.NewReaderSize(countedReader{nc, &ServeIO.Reads}, connBufSize),
		h:      h,
		inline: inline,
		slots:  make(chan struct{}, workers),
	}
	s.readLoop()
	// No more input: what the handlers still running answer is flushed as
	// each finishes, as if the reader were parked for good.
	s.awaitInput()
	s.wg.Wait()
	s.flush()
}

// serveConn is one connection's serving state.
type serveConn struct {
	nc      net.Conn
	br      *bufio.Reader
	h       Handler
	inline  []string
	slots   chan struct{} // one token per running blocking handler
	wg      sync.WaitGroup
	waiting bool // the reader's own copy of parked, read without the lock

	mu      sync.Mutex
	wbuf    []byte // encoded responses not yet written
	wframes int64  // frames in wbuf
	spare   []byte // the other write buffer, while wbuf's last contents are on the wire
	writing bool   // a flush is on the wire; it takes what is appended meanwhile
	parked  bool   // the reader is waiting for input or a slot: blocking ops flush for themselves
	failed  bool   // a write failed or a response could not be framed: the connection is closing
}

// readLoop reads frames until the connection ends.
func (s *serveConn) readLoop() {
	var env Envelope // reused by every inline request
	frames := int64(0)
	defer func() { ServeIO.FramesIn.Add(frames) }()
	for {
		if s.br.Buffered() < 4 {
			ServeIO.FramesIn.Add(frames)
			frames = 0
			s.awaitInput()
		}
		hdr, err := s.br.Peek(4)
		if err != nil {
			return
		}
		size := int(binary.BigEndian.Uint32(hdr))
		if size > MaxFrameSize {
			return
		}
		if s.br.Buffered() < 4+size {
			s.awaitInput() // the rest of the frame is still on its way
		}
		// A frame that fits the read buffer is decoded where it lies; a
		// larger one is read out into a buffer of its own.
		var body []byte
		var bp *[]byte
		if 4+size <= s.br.Size() {
			frame, err := s.br.Peek(4 + size)
			if err != nil {
				return
			}
			body = frame[4:]
		} else {
			if bp, err = readFrameBody(s.br); err != nil {
				return
			}
			body = *bp
		}
		s.unpark()
		frames++
		if err := decodeRequest(body, &env, s.inline); err != nil {
			return // not an envelope: the stream cannot be trusted
		}
		if s.isInline(env.Type) {
			payload, herr := s.h(&env)
			s.respond(&env, payload, herr)
		} else {
			// The handler may keep its envelope: give it one whose payload
			// does not alias the read buffer.
			own := env
			own.Payload = append([]byte(nil), env.Payload...)
			s.acquireSlot()
			s.wg.Add(1)
			go s.runBlocking(&own)
		}
		if bp != nil {
			putFrameBuf(bp)
		} else if _, err := s.br.Discard(4 + size); err != nil {
			return
		}
	}
}

// isInline reports whether the reader runs requests of msgType itself.
// decodeRequest interned the type against the same list, so a match is a
// pointer-equal string compare.
func (s *serveConn) isInline(msgType string) bool {
	for _, t := range s.inline {
		if t == msgType {
			return true
		}
	}
	return false
}

// awaitInput is called by the reader when it is about to wait, having
// drained its input or found every slot taken: the responses gathered while
// it ran leave in one write, and until unpark a blocking op that finishes
// flushes its own response.
func (s *serveConn) awaitInput() {
	if !s.waiting {
		s.waiting = true
		s.mu.Lock()
		s.parked = true
		s.mu.Unlock()
	}
	s.flush()
}

func (s *serveConn) unpark() {
	if s.waiting {
		s.waiting = false
		s.mu.Lock()
		s.parked = false
		s.mu.Unlock()
	}
}

// acquireSlot takes a blocking-handler slot, waiting for one when all are
// in use — which stops the reader, as a full worker queue did: the bound on
// handlers is a bound on what one connection can have in progress. The
// reader flushes before it waits, as it does before a read: the inline
// answers gathered so far must not sit behind somebody else's fsync or RPC.
func (s *serveConn) acquireSlot() {
	select {
	case s.slots <- struct{}{}:
		return
	default:
	}
	s.awaitInput()
	s.slots <- struct{}{}
	s.unpark()
}

// runBlocking runs one request that may block, on its own goroutine.
func (s *serveConn) runBlocking(env *Envelope) {
	defer s.wg.Done()
	payload, herr := s.h(env)
	parked := s.respond(env, payload, herr)
	<-s.slots
	if !parked {
		return // the reader flushes when it has drained its input
	}
	if len(s.slots) > 0 {
		// Others are still running: let those about to finish append first
		// and share the write. A serial peer never pays the yield.
		runtime.Gosched()
	}
	s.flush()
}

// respond encodes the response to env — the handler's payload or its error
// — into the write buffer, flushes it if that filled it past half of
// connBufSize, and reports whether the reader is parked. The response echoes
// both trace identifiers: ReqID ties it to the end-to-end
// operation, Span names the hop that sent the request, so single-connection
// packet captures correlate fully.
func (s *serveConn) respond(env *Envelope, payload interface{}, herr error) (parked bool) {
	s.mu.Lock()
	start := len(s.wbuf)
	buf := beginFrame(s.wbuf)
	if herr == nil {
		var err error
		if buf, err = appendMessage(buf, env.ID, TypeOK, env.ReqID, env.Span, payload); err != nil {
			buf, herr = beginFrame(buf[:start]), err
		}
	}
	if herr != nil {
		buf = appendErrorMessage(buf, env.ID, env.ReqID, env.Span, herr)
	}
	if err := endFrame(buf, start); err != nil || s.failed {
		// A response too large to frame ends the connection, as a failed
		// write does: the peer would wait for it for ever.
		s.wbuf = buf[:start]
		s.failLocked()
		s.mu.Unlock()
		return false
	}
	s.wbuf = buf
	s.wframes++
	parked = s.parked
	full := len(buf) > connBufSize/2
	s.mu.Unlock()
	if full {
		s.flush()
	}
	return parked
}

// failLocked marks the connection failed and closes it, which ends the read
// loop. Callers hold s.mu.
func (s *serveConn) failLocked() {
	if !s.failed {
		s.failed = true
		_ = s.nc.Close()
	}
}

// flush writes out what the write buffer holds. The write itself happens
// outside the lock, from the buffer that was filling, while appends go to
// the spare: a flush that finds another one on the wire leaves its frames
// for that one to take when it comes back.
func (s *serveConn) flush() {
	s.mu.Lock()
	if s.writing {
		s.mu.Unlock()
		return
	}
	for len(s.wbuf) > 0 && !s.failed {
		buf, n := s.wbuf, s.wframes
		s.wbuf, s.wframes = s.spare[:0], 0
		s.spare = nil
		s.writing = true
		s.mu.Unlock()
		_, err := s.nc.Write(buf)
		ServeIO.Writes.Add(1)
		ServeIO.FramesOut.Add(n)
		s.mu.Lock()
		s.writing = false
		if cap(buf) <= readBodyChunk {
			s.spare = buf
		}
		if err != nil {
			s.failLocked()
		}
	}
	s.mu.Unlock()
}
