// Package server exercises inlinecheck: the ops a ServeInline call site
// lists run on the connection's reader and must not reach a blocking call.
package server

import (
	"net"
	"sync"

	"example.com/wire"
)

type ticket struct{ done chan struct{} }

// Wait parks until the record is durable.
func (t *ticket) Wait() { <-t.done }

type Server struct {
	mu      sync.RWMutex
	entries map[string]int
	events  chan string
	mon     *wire.Conn
}

func (s *Server) serve(nc net.Conn) {
	// lookup and stats are clean; setattr waits on a WAL ticket, notify sends
	// on a channel and forward makes an RPC: all three are findings. create
	// does the same as setattr but is not listed, so it is not the reader's.
	wire.ServeInline(nc, s.handle, 8,
		wire.TypeLookup, wire.TypeStats, wire.TypeSetAttr, wire.TypeNotify, wire.TypeForward)
}

func (s *Server) handle(env *wire.Envelope) (interface{}, error) {
	return s.dispatch(env)
}

func (s *Server) dispatch(env *wire.Envelope) (interface{}, error) {
	switch env.Type {
	case wire.TypeLookup:
		return s.handleLookup(env.Path), nil
	case wire.TypeStats:
		return s.handleStats(), nil
	case wire.TypeSetAttr:
		return s.handleSetAttr(env.Path), nil
	case wire.TypeCreate:
		return s.handleSetAttr(env.Path), nil
	case wire.TypeNotify:
		s.events <- env.Path // flagged: channel send on the reader
		return nil, nil
	case wire.TypeForward:
		return nil, s.mon.Call(env.Type, nil, nil) // flagged: RPC on the reader
	}
	return nil, nil
}

// handleLookup takes the read lock and nothing else: clean.
func (s *Server) handleLookup(path string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entries[path]
}

// handleStats starts a goroutine that blocks; the reader does not: clean.
func (s *Server) handleStats() int {
	go func() { s.events <- "stats" }()
	select {
	case s.events <- "polled": // non-blocking: the select has a default
	default:
	}
	return len(s.entries)
}

// handleSetAttr journals and waits for the fsync: flagged when inline.
func (s *Server) handleSetAttr(path string) int {
	s.mu.Lock()
	s.entries[path]++
	t := s.journalLocked(path)
	s.mu.Unlock()
	s.waitDurable(t)
	return s.entries[path]
}

func (s *Server) journalLocked(string) *ticket { return &ticket{done: make(chan struct{})} }

func (s *Server) waitDurable(t *ticket) {
	if t != nil {
		t.Wait()
	}
}
