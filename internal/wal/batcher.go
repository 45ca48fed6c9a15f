package wal

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Ticket is the handle for one enqueued record. The caller Waits on it —
// outside any lock it holds — to learn the record's sequence number once
// the flush window carrying it has been fsynced.
type Ticket struct {
	done chan struct{}
	seq  int64
	err  error
}

// Wait blocks until the record is durable (or its flush failed) and returns
// the assigned sequence number.
func (t *Ticket) Wait() (int64, error) {
	<-t.done
	return t.seq, t.err
}

// Batcher turns per-record fsyncs into group commit: concurrent Enqueues
// accumulate into a window and a single flusher goroutine appends the whole
// window through one AppendBatch — one write, one fsync — then releases
// every waiter. Each blocking op runs on a goroutine of its own (wire's
// serving loop), so the sync cost is shared by however many mutations the
// concurrently serving ops commit per window: on an MDS and on the Monitor.
//
// Enqueue never blocks on the disk, so it is safe to call while holding the
// owner's state lock; only Wait parks, and callers do that after unlocking.
// WAL order therefore matches commit order as long as Enqueue happens under
// the same lock as the in-memory mutation.
type Batcher struct {
	log  *Log
	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	appends atomic.Int64 // records enqueued
	flushes atomic.Int64 // fsync windows committed

	mu      sync.Mutex
	pending []*Ticket
	items   []Item // parallel to pending
	closed  bool
}

// NewBatcher starts a group-commit front end over log. Close the Batcher
// (not just the Log) to flush the final window and stop the flusher.
func NewBatcher(log *Log) *Batcher {
	b := &Batcher{
		log:  log,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	b.wg.Add(1)
	go b.flushLoop()
	return b
}

// Enqueue adds one record to the current flush window and returns its
// Ticket. It never blocks on I/O.
func (b *Batcher) Enqueue(recType string, payload interface{}) *Ticket {
	t := &Ticket{done: make(chan struct{})}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		t.err = ErrClosed
		close(t.done)
		return t
	}
	b.pending = append(b.pending, t)
	b.items = append(b.items, Item{Type: recType, Payload: payload})
	b.mu.Unlock()
	b.appends.Add(1)
	// Non-blocking kick: the channel holds one token, so a wake-up already
	// pending absorbs any number of further enqueues into the same window.
	select {
	case b.kick <- struct{}{}:
	default:
	}
	return t
}

// Append enqueues one record and waits for it to be durable.
func (b *Batcher) Append(recType string, payload interface{}) (int64, error) {
	return b.Enqueue(recType, payload).Wait()
}

// Stats reports the records enqueued and flush windows committed so far.
func (b *Batcher) Stats() (appends, flushes int64) {
	return b.appends.Load(), b.flushes.Load()
}

// Close flushes any remaining window and stops the flusher. Further
// Enqueues fail with ErrClosed. The underlying Log stays open.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	b.wg.Wait()
	return nil
}

func (b *Batcher) flushLoop() {
	defer b.wg.Done()
	for {
		select {
		case <-b.stop:
			b.flush()
			return
		case <-b.kick:
		}
		// Batched-flush yield: give concurrently serving workers a chance
		// to land in this window before paying the fsync — the same
		// discipline the RPC writer applies before flushing its buffer.
		runtime.Gosched()
		b.flush()
	}
}

// flush takes the accumulated window and commits it under one fsync,
// releasing every ticket with its sequence number or the shared error.
func (b *Batcher) flush() {
	b.mu.Lock()
	tickets := b.pending
	items := b.items
	b.pending = nil
	b.items = nil
	b.mu.Unlock()
	if len(tickets) == 0 {
		return
	}
	seqs, err := b.log.AppendBatch(items)
	b.flushes.Add(1)
	if err != nil {
		// The batch is all-or-nothing, so one oversized or unmarshalable
		// item fails the window. Retry individually: only the offending
		// records error, and the Log's rollback keeps each retry safe.
		for i, t := range tickets {
			t.seq, t.err = b.log.Append(items[i].Type, items[i].Payload)
			close(t.done)
		}
		return
	}
	for i, t := range tickets {
		t.seq = seqs[i]
		close(t.done)
	}
}
