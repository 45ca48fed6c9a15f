package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrRetryClosed is returned by calls on a closed RetryingConn.
var ErrRetryClosed = errors.New("wire: retrying connection is closed")

// RetryPolicy bounds the redial/retry behaviour of a RetryingConn.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per Call (default 3).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry (default 25ms); each
	// further retry doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 1s).
	MaxBackoff time.Duration
	// Jitter is the fraction of the backoff randomised away (default 0.5):
	// the actual sleep is uniform in [(1-Jitter)·b, b], desynchronising
	// peers that all lost the same Monitor at the same moment.
	Jitter float64
}

func (p *RetryPolicy) applyDefaults() {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
}

// backoff returns the jittered sleep before retry attempt i (0-based).
func (p *RetryPolicy) backoff(i int, rng func() float64) time.Duration {
	b := p.BaseBackoff << uint(i)
	if b > p.MaxBackoff || b <= 0 {
		b = p.MaxBackoff
	}
	spread := float64(b) * p.Jitter * rng()
	return b - time.Duration(spread)
}

// CallMetrics counts RPC outcomes across one or more retrying connections.
// All fields are atomically updated; read them with Snapshot.
type CallMetrics struct {
	// Calls is the number of Call invocations (not attempts).
	Calls atomic.Int64
	// Retries counts extra attempts beyond each call's first.
	Retries atomic.Int64
	// Timeouts counts attempts that died on an I/O deadline.
	Timeouts atomic.Int64
	// Redials counts successful reconnects after a broken connection.
	Redials atomic.Int64
	// Failures counts Calls that exhausted every attempt.
	Failures atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of CallMetrics.
type MetricsSnapshot struct {
	Calls    int64 `json:"calls"`
	Retries  int64 `json:"retries"`
	Timeouts int64 `json:"timeouts"`
	Redials  int64 `json:"redials"`
	Failures int64 `json:"failures"`
}

func (m *MetricsSnapshot) code(c *codec) {
	c.i64(&m.Calls)
	c.i64(&m.Retries)
	c.i64(&m.Timeouts)
	c.i64(&m.Redials)
	c.i64(&m.Failures)
}

// Snapshot reads the counters.
func (m *CallMetrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Calls:    m.Calls.Load(),
		Retries:  m.Retries.Load(),
		Timeouts: m.Timeouts.Load(),
		Redials:  m.Redials.Load(),
		Failures: m.Failures.Load(),
	}
}

// RetryingConn is a self-healing RPC channel to one address: it lazily
// dials, poisons and drops the underlying Conn on any transport error, and
// (for Call) retries with jittered exponential backoff on a fresh
// connection. Application (remote) errors are never retried — the peer
// already processed the request. Safe for concurrent use; concurrent calls
// pipeline over the shared underlying Conn, and when a poisoned conn fails
// several in-flight calls at once they independently redial and retry.
type RetryingConn struct {
	addr        string
	dialTimeout time.Duration
	callTimeout time.Duration
	policy      RetryPolicy
	metrics     *CallMetrics // never nil

	mu            sync.Mutex
	conn          *Conn
	rng           *rand.Rand
	closed        bool
	everConnected bool
}

// RetryOptions parameterises NewRetryingConn.
type RetryOptions struct {
	// DialTimeout bounds each reconnect (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds each attempt's write+read (default 2s).
	CallTimeout time.Duration
	// Policy bounds retries and backoff.
	Policy RetryPolicy
	// Metrics, when non-nil, aggregates outcome counters (shareable across
	// several connections).
	Metrics *CallMetrics
	// Seed fixes the jitter source for deterministic tests (0 = time-based).
	Seed int64
}

// NewRetryingConn builds a retrying channel to addr. No I/O happens until
// the first call.
func NewRetryingConn(addr string, opts RetryOptions) *RetryingConn {
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 2 * time.Second
	}
	opts.Policy.applyDefaults()
	if opts.Metrics == nil {
		opts.Metrics = &CallMetrics{}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &RetryingConn{
		addr:        addr,
		dialTimeout: opts.DialTimeout,
		callTimeout: opts.CallTimeout,
		policy:      opts.Policy,
		metrics:     opts.Metrics,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Addr returns the peer address.
func (r *RetryingConn) Addr() string { return r.addr }

// Metrics returns the connection's outcome counters.
func (r *RetryingConn) Metrics() *CallMetrics { return r.metrics }

// Call performs one RPC, redialling and retrying transport failures up to
// the policy's attempt budget with jittered exponential backoff between
// attempts. Remote errors return immediately.
func (r *RetryingConn) Call(msgType string, payload, out interface{}) error {
	return r.call(msgType, "", "", payload, out, r.policy.MaxAttempts)
}

// CallTraced is Call with trace propagation: every attempt's envelope
// carries the same reqID/span, so retries of one logical request share one
// trace identifier.
func (r *RetryingConn) CallTraced(msgType, reqID, span string, payload, out interface{}) error {
	return r.call(msgType, reqID, span, payload, out, r.policy.MaxAttempts)
}

// CallOnce performs a single attempt with no backoff — the right shape for
// periodic traffic like heartbeats, where the next tick is the retry and
// sleeping inside the call would delay it.
func (r *RetryingConn) CallOnce(msgType string, payload, out interface{}) error {
	return r.call(msgType, "", "", payload, out, 1)
}

func (r *RetryingConn) call(msgType, reqID, span string, payload, out interface{}, attempts int) error {
	r.metrics.Calls.Add(1)
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			r.metrics.Retries.Add(1)
			time.Sleep(r.policy.backoff(i-1, r.rand))
		}
		conn, redialled, err := r.get()
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrRetryClosed) {
				break
			}
			continue
		}
		if redialled {
			r.metrics.Redials.Add(1)
		}
		err = conn.CallTraced(msgType, reqID, span, payload, out)
		if err == nil {
			return nil
		}
		if IsRemote(err) {
			return err
		}
		if IsTimeout(err) {
			r.metrics.Timeouts.Add(1)
		}
		r.drop(conn)
		lastErr = err
	}
	r.metrics.Failures.Add(1)
	if lastErr == nil {
		lastErr = fmt.Errorf("wire: call %s: no attempts", msgType)
	}
	return lastErr
}

// rand returns a uniform float in [0,1) under r.mu.
func (r *RetryingConn) rand() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// get returns a healthy connection, dialling if needed.
func (r *RetryingConn) get() (conn *Conn, redialled bool, err error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, false, ErrRetryClosed
	}
	if r.conn != nil && !r.conn.Broken() {
		conn = r.conn
		r.mu.Unlock()
		return conn, false, nil
	}
	if r.conn != nil {
		_ = r.conn.Close()
		r.conn = nil
	}
	r.mu.Unlock()

	// Dial outside the lock so a slow peer doesn't block concurrent callers
	// that only want to inspect state.
	fresh, derr := DialCall(r.addr, r.dialTimeout, r.callTimeout)
	if derr != nil {
		return nil, false, derr
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		_ = fresh.Close()
		return nil, false, ErrRetryClosed
	}
	if r.conn != nil && !r.conn.Broken() {
		// Another caller won the redial race; use theirs.
		_ = fresh.Close()
		return r.conn, false, nil
	}
	r.conn = fresh
	redialled = r.everConnected
	r.everConnected = true
	return fresh, redialled, nil
}

// drop discards conn if it is still the pooled connection.
func (r *RetryingConn) drop(conn *Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn == conn {
		_ = conn.Close()
		r.conn = nil
	}
}

// Close releases the underlying connection; further calls fail fast.
func (r *RetryingConn) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.conn != nil {
		err := r.conn.Close()
		r.conn = nil
		return err
	}
	return nil
}
