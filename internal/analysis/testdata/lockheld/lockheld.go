// Package lockheld seeds one violation (or clean pattern) per function for
// the lockheld analyzer's golden test.
package lockheld

import "sync"

type conn struct{}

func (*conn) Call(string, any, any) error { return nil }

type svc struct {
	mu sync.RWMutex
	c  *conn
	ch chan int
	n  int
}

// rpcUnderLock blocks on an RPC while holding s.mu.
func (s *svc) rpcUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.c.Call("op", nil, nil) // want: blocking RPC
}

// sendUnderLock blocks on a channel send while holding s.mu.
func (s *svc) sendUnderLock() {
	s.mu.Lock()
	s.ch <- 1 // want: blocking channel send
	s.mu.Unlock()
}

// recvUnderLock blocks on a channel receive while holding s.mu.
func (s *svc) recvUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	<-s.ch // want: blocking channel receive
}

// selectUnderLock blocks on a select with no default.
func (s *svc) selectUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want: select without default
	case <-s.ch:
	}
}

// leakOnReturn forgets to unlock on the early-return path.
func (s *svc) leakOnReturn(b bool) int {
	s.mu.Lock()
	if b {
		return 0 // want: not released on this return path
	}
	s.mu.Unlock()
	return s.n
}

// doubleLock locks the same mutex twice on one path.
func (s *svc) doubleLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.Lock() // want: possible self-deadlock
}

// mixedRelease acquires a read lock and releases it as a write lock.
func (s *svc) mixedRelease() {
	s.mu.RLock()
	s.mu.Unlock() // want: RLock released with Unlock
}

// unlockNotHeld releases a mutex this path never acquired.
func (s *svc) unlockNotHeld(b bool) {
	if b {
		s.mu.Lock()
		s.mu.Unlock()
	}
	s.mu.Unlock() // want: not held on this path
}

// loopLeak re-locks every iteration without releasing.
func (s *svc) loopLeak(xs []int) {
	for range xs {
		s.mu.Lock() // want: still held at end of iteration
	}
}

// blockInsideLockedHelper runs under the caller's lock by convention.
func (s *svc) blockInsideLockedHelper() { s.flushLocked() }

func (s *svc) flushLocked() {
	_ = s.c.Call("flush", nil, nil) // want: blocking RPC under the *Locked convention
}

// resetLocked releases the caller's lock, breaking the convention its name
// promises.
func (s *svc) resetLocked() {
	s.mu.Unlock() // want: releases the caller's lock
	s.n = 0
	s.mu.Lock()
}

// cleanDefer is the canonical pattern: no diagnostics.
func (s *svc) cleanDefer() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}

// cleanUnlockBeforeBlock copies state out, releases, then blocks: clean.
func (s *svc) cleanUnlockBeforeBlock() {
	s.mu.Lock()
	c := s.c
	s.mu.Unlock()
	_ = c.Call("op", nil, nil)
}

// cleanGoroutine spawns work under the lock; the goroutine body has its own
// lock state, so its blocking call is clean, and the spawn itself is not a
// blocking operation.
func (s *svc) cleanGoroutine() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		_ = s.c.Call("async", nil, nil)
	}()
}

// cleanBranches unlocks on every path: clean.
func (s *svc) cleanBranches(b bool) {
	s.mu.Lock()
	if b {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

// cleanSelectDefault polls without blocking: clean.
func (s *svc) cleanSelectDefault() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		s.n = v
	default:
	}
}

type wlog struct{}

func (*wlog) Append(string, any) (int64, error)  { return 0, nil }
func (*wlog) AppendBatch([]any) ([]int64, error) { return nil, nil }
func (*wlog) Sync() error                        { return nil }

type journaled struct {
	mu  sync.Mutex
	log *wlog
	n   int
}

// appendUnderLock fsyncs a WAL record while holding j.mu.
func (j *journaled) appendUnderLock() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.n++
	_, _ = j.log.Append("rec", j.n) // want: blocking WAL append
}

// journalLocked appends under the caller's lock by convention.
func (j *journaled) journalLocked() {
	_, _ = j.log.AppendBatch(nil) // want: blocking WAL append under the *Locked convention
}

// syncUnderLock fsyncs while holding j.mu.
func (j *journaled) syncUnderLock() {
	j.mu.Lock()
	_ = j.log.Sync() // want: blocking fsync
	j.mu.Unlock()
}

// cleanSyncAfterUnlock changes state under the lock and fsyncs after it:
// clean.
func (j *journaled) cleanSyncAfterUnlock() {
	j.mu.Lock()
	j.n++
	j.mu.Unlock()
	_ = j.log.Sync()
}
