package server

import (
	"encoding/json"
	"os"

	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// The MDS commits, waits, compacts and recovers through its wal.Journal.
// These name those steps as the MDS's tests call them.

func (s *Server) commitLocked(rec record)   { s.journal.Commit(rec) }
func (s *Server) waitDurable(t *wal.Ticket) { s.journal.Wait(t) }
func (s *Server) writeSnapshot() error      { return s.journal.Compact() }

// recoverFromDisk recovers what s's data directory holds, as a restart
// does, and closes the journal again.
func (s *Server) recoverFromDisk() error {
	if err := s.openJournal(); err != nil {
		return err
	}
	s.closeJournal()
	return nil
}

// readImage reads and decodes the snapshot image at path.
func readImage(path string) (*wire.Image, error) {
	body, err := wal.ReadImage(path)
	if err == nil && body == nil {
		err = os.ErrNotExist
	}
	if err != nil {
		return nil, err
	}
	return wire.DecodeImage(body)
}

// applyWALRecord decodes one logged record as recovery does and applies it.
func (s *Server) applyWALRecord(rec wal.Record) error {
	r := recordKinds[rec.Type]()
	if err := json.Unmarshal(rec.Data, r); err != nil {
		return err
	}
	s.mu.Lock()
	s.applyLocked(r)
	s.mu.Unlock()
	return nil
}
