// Package obs is the cluster observability layer: a structured,
// allocation-conscious event recorder threaded through the client, MDS and
// Monitor paths.
//
// Every public operation is minted a request identifier at the edge (client
// or load generator) that rides wire.Envelope.ReqID across MDS forwarding,
// Monitor RPCs and the full migration lifecycle, and every hop records a
// fixed-size Event into a pre-allocated ring. Recording is zero-allocation
// and lock-cheap, so it stays on the server hot path; JSONL encoding is
// deferred to dump time (TypeObsDump, d2ctl events) or a background Flusher.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"d2tree/internal/stats"
	"d2tree/internal/wire"
)

// Event is the structured observability record; the schema lives in the
// wire package so TypeObsDump ships it verbatim, and its json tags name the
// fields of the JSONL output.
type Event = wire.ObsEvent

// Event kinds.
const (
	// KindOp is one client-visible metadata operation at one hop.
	KindOp = "op"
	// KindMigration is one stage of a subtree migration's lifecycle.
	KindMigration = "migration"
	// KindCluster is a membership change (join, death, recovery).
	KindCluster = "cluster"
	// KindObs is recorder meta-traffic (e.g. a dropped-events marker).
	KindObs = "obs"
)

// DefaultRingSize is the per-node event-ring capacity when a Recorder is
// built with capacity <= 0.
const DefaultRingSize = 4096

// Recorder buffers events in a fixed pre-allocated ring. Record copies the
// event into the next slot without allocating; when the ring wraps, the
// oldest events are overwritten and reported as dropped by Since. Safe for
// concurrent use. Construct with NewRecorder.
type Recorder struct {
	mu   sync.Mutex
	node string
	ring []Event
	seq  uint64 // last assigned sequence number; 0 = nothing recorded
}

// NewRecorder builds a recorder identified as node with the given ring
// capacity (<= 0 selects DefaultRingSize).
func NewRecorder(node string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Recorder{node: node, ring: make([]Event, capacity)}
}

// SetNode renames the recorder — an MDS learns its cluster identity only
// after joining.
func (r *Recorder) SetNode(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.node = node
}

// Node returns the recorder's identity.
func (r *Recorder) Node() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node
}

// Seq returns the last assigned sequence number (a resume cursor for Since).
func (r *Recorder) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Record stamps ev with the next sequence number, the current time and the
// recorder's node name, and copies it into the ring. It never allocates:
// callers pass fully-formed string fields and the struct is copied into a
// pre-allocated slot.
func (r *Recorder) Record(ev Event) { r.RecordAt(time.Now(), ev) }

// RecordAt is Record for a caller that has already read the clock at the
// moment the event ended (an op that timed itself): the event carries that
// reading, so its timestamp and its duration come from the same two clock
// reads the latency histogram saw.
func (r *Recorder) RecordAt(end time.Time, ev Event) {
	ts := end.UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev.Seq = r.seq
	ev.TS = ts
	ev.Node = r.node
	r.ring[(r.seq-1)%uint64(len(r.ring))] = ev
}

// RecordOp records one request a server handled: a KindOp event for env,
// concerning path, that ended at end after d. It is kept out of line so the
// event is built in a frame of its own once the handler has returned: built
// in the caller, it would sit on every blocking op's fresh goroutine stack
// for the whole handler and push that stack past its first segment.
//
//go:noinline
func (r *Recorder) RecordOp(env *wire.Envelope, path string, end time.Time, d time.Duration, err error) {
	r.RecordAt(end, Event{
		Kind:  KindOp,
		Op:    env.Type,
		ReqID: env.ReqID,
		From:  env.Span,
		Path:  path,
		DurUS: d.Microseconds(),
		Err:   ErrString(err),
	})
}

// Since returns the buffered events with Seq > since, oldest first, plus the
// number of requested events the ring had already overwritten. max > 0 caps
// the result to the max oldest matching events (re-poll with the last Seq to
// continue); max <= 0 returns everything buffered.
func (r *Recorder) Since(since uint64, max int) (events []Event, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq == 0 {
		return nil, 0
	}
	first := uint64(1)
	if r.seq > uint64(len(r.ring)) {
		first = r.seq - uint64(len(r.ring)) + 1
	}
	if since+1 > first {
		first = since + 1
	} else {
		dropped = first - since - 1
	}
	if first > r.seq {
		return nil, dropped
	}
	n := int(r.seq - first + 1)
	if max > 0 && n > max {
		n = max
	}
	events = make([]Event, 0, n)
	for s := first; s < first+uint64(n); s++ {
		events = append(events, r.ring[(s-1)%uint64(len(r.ring))])
	}
	return events, dropped
}

// Snapshot returns every buffered event, oldest first.
func (r *Recorder) Snapshot() []Event {
	events, _ := r.Since(0, 0)
	return events
}

// WriteJSONL encodes events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("obs: encode event: %w", err)
		}
	}
	return nil
}

// OpStats keeps one latency histogram per wire op type. The zero value is
// ready to use; Observe is allocation-free once an op's histogram exists.
type OpStats struct {
	mu    sync.Mutex
	hists map[string]*stats.Histogram
}

// Observe records one server-side latency sample for op.
func (o *OpStats) Observe(op string, d time.Duration) {
	o.mu.Lock()
	h := o.hists[op]
	if h == nil {
		if o.hists == nil {
			o.hists = make(map[string]*stats.Histogram)
		}
		h = &stats.Histogram{}
		o.hists[op] = h
	}
	o.mu.Unlock()
	// Histogram.Record takes its own lock; recording outside o.mu keeps the
	// map lock to a read-mostly lookup.
	h.Record(d)
}

// Latencies summarises every op's histogram in wire form.
func (o *OpStats) Latencies() map[string]wire.LatencySummary {
	o.mu.Lock()
	hists := make(map[string]*stats.Histogram, len(o.hists))
	for op, h := range o.hists {
		hists[op] = h
	}
	o.mu.Unlock()
	out := make(map[string]wire.LatencySummary, len(hists))
	for op, h := range hists {
		out[op] = Latency(h.Summarize())
	}
	return out
}

// Latency converts a histogram summary to its wire representation.
func Latency(s stats.Summary) wire.LatencySummary {
	return wire.LatencySummary{
		Count:  s.Count,
		MeanUS: s.Mean.Microseconds(),
		P50US:  s.P50.Microseconds(),
		P90US:  s.P90.Microseconds(),
		P99US:  s.P99.Microseconds(),
		MaxUS:  s.Max.Microseconds(),
	}
}

// ErrString renders an error for an Event's Err field ("" for nil), without
// allocating on the success path.
func ErrString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// IDGen mints request identifiers: prefix plus 16 hex digits from a seeded
// source. Safe for concurrent use.
type IDGen struct {
	mu  sync.Mutex
	rng *rand.Rand
	// prefix distinguishes minting edges ("r" requests, "m" migrations).
	prefix string
}

// NewIDGen builds a generator. seed 0 selects a time-based seed; a fixed
// seed gives reproducible identifiers for tests.
func NewIDGen(prefix string, seed int64) *IDGen {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &IDGen{prefix: prefix, rng: rand.New(rand.NewSource(seed))}
}

// Next returns a fresh identifier. Prefix, dash and digits are assembled in
// one stack buffer, so the returned string is the only allocation.
func (g *IDGen) Next() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.rng.Uint64()
	const hex = "0123456789abcdef"
	var buf [32]byte // longer prefixes spill to the heap
	b := append(buf[:0], g.prefix...)
	b = append(b, '-')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hex[v>>shift&0xf])
	}
	return string(b)
}

// Flusher drains a Recorder to an io.Writer as JSONL in the background —
// the daemon-side event-log sink (-events in d2mds/d2monitor). Encoding
// happens on the flusher goroutine, off the record hot path. Construct with
// NewFlusher, stop with Close.
type Flusher struct {
	rec      *Recorder
	w        io.Writer
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// NewFlusher starts a background drain of rec into w every interval
// (<= 0 selects one second).
func NewFlusher(rec *Recorder, w io.Writer, interval time.Duration) *Flusher {
	if interval <= 0 {
		interval = time.Second
	}
	f := &Flusher{
		rec:      rec,
		w:        w,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go f.loop()
	return f
}

func (f *Flusher) loop() {
	defer close(f.done)
	ticker := time.NewTicker(f.interval)
	defer ticker.Stop()
	var cursor uint64
	for {
		select {
		case <-f.stop:
			f.drain(&cursor)
			return
		case <-ticker.C:
			f.drain(&cursor)
		}
	}
}

func (f *Flusher) drain(cursor *uint64) {
	events, dropped := f.rec.Since(*cursor, 0)
	if dropped > 0 {
		// The ring lapped the flusher: leave an explicit marker instead of a
		// silent gap in the log.
		_ = WriteJSONL(f.w, []Event{{
			Node:   f.rec.Node(),
			Kind:   KindObs,
			Op:     "dropped",
			Detail: fmt.Sprintf("%d events overwritten before flush", dropped),
		}})
	}
	if len(events) == 0 {
		return
	}
	*cursor = events[len(events)-1].Seq
	_ = WriteJSONL(f.w, events)
}

// Close performs a final drain and stops the background goroutine.
func (f *Flusher) Close() error {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	<-f.done
	return nil
}
