package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrConnBroken is returned by Call on a connection that previously hit a
// transport error (timeout, short read, ID the demultiplexer could not
// match). Such a connection is in an undefined framing state — a later
// response could be decoded as the answer to the wrong request — so it is
// poisoned and must be redialled.
var ErrConnBroken = errors.New("wire: connection is broken; redial")

// RemoteError is an application-level failure reported by the peer. The
// transport itself is healthy: the connection stays usable and the call
// must NOT be retried (the peer already processed and rejected it).
type RemoteError struct {
	// MsgType is the request type that failed.
	MsgType string
	// Msg is the peer's error message.
	Msg string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: call %s: remote error: %s", e.MsgType, e.Msg)
}

// IsRemote reports whether err is an application error from the peer (as
// opposed to a transport failure worth a reconnect/retry).
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// IsTimeout reports whether err was caused by an I/O deadline expiring.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// connBufSize sizes the buffered reader and the write buffer each side of a
// connection uses: big enough to batch dozens of typical frames per syscall.
const connBufSize = 32 << 10

// IOCounters counts the frames one side of the wire moved and the syscalls
// that moved them, so frames per read and per write can be read off a
// running process. They are bumped once per batch, not per frame.
type IOCounters struct {
	FramesIn, Reads, FramesOut, Writes atomic.Int64
}

// IOSnapshot is a point-in-time copy of IOCounters.
type IOSnapshot struct {
	FramesIn  int64 `json:"framesIn"`
	Reads     int64 `json:"reads"`
	FramesOut int64 `json:"framesOut"`
	Writes    int64 `json:"writes"`
}

func (m *IOSnapshot) code(c *codec) {
	c.i64(&m.FramesIn)
	c.i64(&m.Reads)
	c.i64(&m.FramesOut)
	c.i64(&m.Writes)
}

// Snapshot reads the counters.
func (c *IOCounters) Snapshot() IOSnapshot {
	return IOSnapshot{
		FramesIn:  c.FramesIn.Load(),
		Reads:     c.Reads.Load(),
		FramesOut: c.FramesOut.Load(),
		Writes:    c.Writes.Load(),
	}
}

// ConnIO and ServeIO are this process's wire traffic: every Conn's calls,
// and every serving loop's requests.
var ConnIO, ServeIO IOCounters

// BadFrames counts the frames this process's serving loops and Conns have
// refused as malformed (ErrBadFrame), each of which ended its connection:
// "is some peer speaking another format?" without a packet capture.
var BadFrames atomic.Int64

// countedReader counts the reads a connection's buffered reader issues.
type countedReader struct {
	r     net.Conn
	reads *atomic.Int64
}

func (r countedReader) Read(p []byte) (int, error) {
	r.reads.Add(1)
	return r.r.Read(p)
}

// brokenError is the failure delivered to every call that was in flight
// when its connection was poisoned: it carries the transport cause (so
// IsTimeout and friends still classify it) and matches ErrConnBroken.
type brokenError struct{ cause error }

func (e *brokenError) Error() string {
	return fmt.Sprintf("%v (%v)", e.cause, ErrConnBroken)
}

func (e *brokenError) Unwrap() []error { return []error{e.cause, ErrConnBroken} }

// callResult is what the demultiplexer (or the poisoner) delivers to a
// waiting call: the response body, still encoded, in a buffer the call now
// owns; or the failure.
type callResult struct {
	body *[]byte
	err  error
}

// resultChPool recycles the per-call result channels. A channel is only
// returned to the pool after its single result has been received, so a
// pooled channel is always empty.
var resultChPool = sync.Pool{
	New: func() interface{} { return make(chan callResult, 1) },
}

// pendingCall is a registered call awaiting its response.
type pendingCall struct {
	ch       chan callResult
	msgType  string
	deadline time.Duration // on the connection's clock; 0 = wait forever
}

// Conn is a pipelined, multiplexed request/response client over one TCP
// connection: any number of goroutines may have calls in flight at once.
// Each call stamps a fresh frame ID, encodes its frame straight into the
// connection's write buffer and parks on a per-call channel; a flusher
// goroutine gathers the frames of a pipelined burst into single writes, and
// a single demultiplexing reader goroutine hands each response body to the
// pending call its ID names, which decodes it. Responses may arrive in any
// order.
//
// Any transport failure — a deadline expiry, a write/read error, or a
// response ID the demultiplexer cannot match — poisons the connection:
// every pending call fails with an error matching ErrConnBroken, and every
// later call fails fast the same way. Application errors from the peer
// (RemoteError) leave the connection usable.
type Conn struct {
	nc   net.Conn
	born time.Time // origin of the connection's clock (see now)

	mu      sync.Mutex
	nextID  uint64
	timeout time.Duration // per-call deadline; 0 = wait forever
	pending map[uint64]pendingCall
	broken  bool
	cause   error // first transport error; set once with broken
	started bool
	wbuf    []byte // encoded request frames the flusher has not taken yet
	wframes int32  // frames in wbuf
	// sweeper is the connection's one deadline timer, counting down to
	// sweepAt, the deadline of the oldest pending call when it was last set
	// (0 = idle: no pending call has a deadline).
	sweeper *time.Timer
	sweepAt time.Duration

	wake chan struct{} // 1-buffered: wbuf went from empty to non-empty
	done chan struct{} // closed when the conn is poisoned

	// inflight counts registered calls not yet completed. The flusher uses
	// it as a batching hint: while more calls are in flight than it has
	// frames, it yields before writing so imminent calls share the syscall.
	// Purely advisory — correctness never depends on it.
	inflight atomic.Int32
}

// Dial connects to addr with the given dial timeout. Calls on the returned
// connection have no deadline; see DialCall or SetCallTimeout.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	//d2vet:ignore goroutinecheck Dial is the documented un-deadlined constructor; serving-path callers use DialCall
	return DialCall(addr, timeout, 0)
}

// DialCall connects to addr with dialTimeout and arms every subsequent Call
// with callTimeout (0 = no per-call deadline).
func DialCall(addr string, dialTimeout, callTimeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := NewConn(nc)
	c.timeout = callTimeout
	return c, nil
}

// NewConn wraps an existing connection (tests, in-process pipes).
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc:      nc,
		born:    time.Now(),
		pending: make(map[uint64]pendingCall),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

// now reads the connection's clock: monotonic time since it was made.
func (c *Conn) now() time.Duration { return time.Since(c.born) }

// SetCallTimeout arms every subsequent Call with a deadline (0 disarms).
// Calls already in flight keep the deadline they were issued under.
func (c *Conn) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// Broken reports whether the connection has been poisoned by a transport
// error and must be redialled.
func (c *Conn) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// Call sends one request and decodes the response into out (which may be
// nil when only success/failure matters). Safe for concurrent use: calls
// from many goroutines pipeline over the single connection.
func (c *Conn) Call(msgType string, payload, out interface{}) error {
	return c.CallTraced(msgType, "", "", payload, out)
}

// CallTraced is Call with trace propagation: reqID is the end-to-end request
// identifier stamped on the envelope and span names the calling hop. Both
// may be empty (untraced traffic).
func (c *Conn) CallTraced(msgType, reqID, span string, payload, out interface{}) error {
	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		return fmt.Errorf("wire: call %s: %w", msgType, ErrConnBroken)
	}
	start := len(c.wbuf)
	buf, err := appendMessage(beginFrame(c.wbuf), c.nextID+1, msgType, reqID, span, payload)
	if err != nil {
		c.wbuf = buf[:start]
		c.mu.Unlock()
		return err
	}
	if err := endFrame(buf, start); err != nil {
		// The old writer failed the connection on a frame it could not
		// write; nothing of this one reaches the stream, but the caller
		// sees the same poisoned connection.
		c.wbuf = buf[:start]
		c.mu.Unlock()
		return c.fail(msgType, err)
	}
	c.wbuf = buf
	c.wframes++
	c.nextID++
	id := c.nextID
	if !c.started {
		c.started = true
		go c.writeLoop()
		go c.readLoop()
	}
	// Exactly one result is ever sent per registered call (the demultiplexer
	// deletes the pending entry before sending; the poisoner takes the whole
	// map once), so a channel that has delivered its result is empty and
	// safe to recycle.
	ch := resultChPool.Get().(chan callResult)
	call := pendingCall{ch: ch, msgType: msgType}
	if c.timeout > 0 {
		call.deadline = c.now() + c.timeout
		if c.sweepAt == 0 || call.deadline < c.sweepAt {
			c.armSweeperLocked(call.deadline, c.timeout)
		}
	}
	c.pending[id] = call
	c.inflight.Add(1)
	c.mu.Unlock()
	if start == 0 {
		// Empty → non-empty: the one edge the flusher sleeps through.
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}

	res := <-ch
	c.inflight.Add(-1)
	resultChPool.Put(ch)
	return c.finish(msgType, res, out)
}

// finish interprets one delivered call result.
func (c *Conn) finish(msgType string, res callResult, out interface{}) error {
	if res.err != nil {
		return fmt.Errorf("wire: call %s: %w", msgType, res.err)
	}
	err := decodeResponse(*res.body, msgType, out)
	putFrameBuf(res.body)
	if errors.Is(err, ErrBadFrame) {
		BadFrames.Add(1)
		return c.fail(msgType, err)
	}
	return err
}

// fail poisons the connection from inside a call and returns that call's
// error: what the call would have been delivered had another goroutine
// poisoned the connection under it.
func (c *Conn) fail(msgType string, cause error) error {
	c.poison(cause)
	return fmt.Errorf("wire: call %s: %w", msgType, &brokenError{cause: cause})
}

// writeLoop is the flusher: it takes whatever frames the callers have
// encoded into the write buffer and issues them as one write. While more
// calls are in flight than it has frames for, it first yields the processor
// — again for as long as each yield brings more frames — so callers that
// were about to encode get to run and share the syscall. Serial traffic
// (one call in flight) never pays the yield. A caller writing its own frame
// instead would find no write to join at GOMAXPROCS=1, where a write returns
// before any other goroutine runs: every frame would get its own syscall.
func (c *Conn) writeLoop() {
	var spare []byte
	for {
		select {
		case <-c.wake:
		case <-c.done:
			return
		}
		for seen := int32(-1); ; runtime.Gosched() {
			c.mu.Lock()
			n, size := c.wframes, len(c.wbuf)
			c.mu.Unlock()
			if n == seen || c.inflight.Load() <= n || size > connBufSize/2 {
				break
			}
			seen = n
		}
		c.mu.Lock()
		buf, n := c.wbuf, c.wframes
		c.wbuf, c.wframes = spare[:0], 0
		// The spare is now the buffer being filled: were it kept, a write
		// whose buffer is too big to keep would leave it to be taken twice,
		// and callers would append over the bytes on the wire.
		spare = nil
		c.mu.Unlock()
		if len(buf) == 0 {
			continue
		}
		_, err := c.nc.Write(buf)
		ConnIO.Writes.Add(1)
		ConnIO.FramesOut.Add(int64(n))
		if err != nil {
			c.poison(fmt.Errorf("wire: write frame: %w", err))
			return
		}
		if cap(buf) <= readBodyChunk {
			spare = buf
		}
	}
}

// readLoop is the demultiplexer: the only reader of the socket. It reads
// each response's ID (peekFrameID) and hands the body, still encoded, to the
// pending call of that ID, which decodes it; a frame it cannot match means
// the stream is desynchronised, which poisons the connection.
func (c *Conn) readLoop() {
	br := bufio.NewReaderSize(countedReader{c.nc, &ConnIO.Reads}, connBufSize)
	frames := int64(0)
	defer func() { ConnIO.FramesIn.Add(frames) }()
	for {
		if br.Buffered() == 0 {
			ConnIO.FramesIn.Add(frames)
			frames = 0
		}
		bp, err := readFrameBody(br)
		if err != nil {
			c.poison(err)
			return
		}
		frames++
		id, err := peekFrameID(*bp)
		if err != nil {
			putFrameBuf(bp)
			BadFrames.Add(1)
			c.poison(err)
			return
		}
		c.mu.Lock()
		call, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if !ok {
			putFrameBuf(bp)
			c.poison(fmt.Errorf("response id %d matches no pending call", id))
			return
		}
		call.ch <- callResult{body: bp}
	}
}

// armSweeperLocked sets the connection's deadline timer to go off at
// deadline, which is in from now. Callers hold c.mu.
func (c *Conn) armSweeperLocked(deadline, in time.Duration) {
	c.sweepAt = deadline
	if c.sweeper == nil {
		c.sweeper = time.AfterFunc(in, c.sweep)
	} else {
		c.sweeper.Reset(in)
	}
}

// sweep runs when the deadline timer goes off. The timer was set for what
// was then the oldest pending call; that call has usually been answered
// since, so sweep finds the call that is oldest now and re-arms for it, or
// goes idle when no pending call has a deadline. One timer per connection,
// reset once per timeout of steady traffic, replaces a timer per call. If
// the oldest call's deadline has passed, the stream may still carry its
// stale response later: the connection is poisoned.
func (c *Conn) sweep() {
	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		return
	}
	var oldestID uint64
	var oldest pendingCall
	for id, call := range c.pending {
		if call.deadline != 0 && (oldest.deadline == 0 || call.deadline < oldest.deadline) {
			oldestID, oldest = id, call
		}
	}
	now := c.now()
	if oldest.deadline == 0 || oldest.deadline > now {
		c.sweepAt = 0
		if oldest.deadline != 0 {
			c.armSweeperLocked(oldest.deadline, oldest.deadline-now)
		}
		c.mu.Unlock()
		return
	}
	// The call whose deadline expired fails with the bare timeout, every
	// other pending call with the broken-connection error that carries it.
	delete(c.pending, oldestID)
	pending := c.breakLocked(fmt.Errorf("call %s: %w", oldest.msgType, os.ErrDeadlineExceeded))
	c.mu.Unlock()
	oldest.ch <- callResult{err: os.ErrDeadlineExceeded}
	c.failAll(pending)
}

// poison marks the connection broken, closes the socket (waking the reader
// and the flusher), and fails every pending call with an error that matches
// ErrConnBroken while preserving cause for classification (IsTimeout).
// Only the first cause wins; later calls are no-ops.
func (c *Conn) poison(cause error) {
	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		return
	}
	pending := c.breakLocked(cause)
	c.mu.Unlock()
	c.failAll(pending)
}

// breakLocked marks the connection broken under c.mu and returns the calls
// that were pending, for failAll once the lock is released.
func (c *Conn) breakLocked(cause error) map[uint64]pendingCall {
	c.broken = true
	c.cause = cause
	pending := c.pending
	c.pending = nil
	if c.sweeper != nil {
		c.sweeper.Stop()
	}
	close(c.done)
	return pending
}

func (c *Conn) failAll(pending map[uint64]pendingCall) {
	_ = c.nc.Close()
	res := callResult{err: &brokenError{cause: c.cause}}
	for _, call := range pending {
		call.ch <- res // buffered; each pending call receives exactly one result
	}
}

// SetDeadline applies a deadline to the underlying connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// Close closes the underlying connection. In-flight calls fail as the
// reader and the flusher observe the closed socket and poison the
// connection.
func (c *Conn) Close() error { return c.nc.Close() }
