package server

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"testing"

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
	img := new(wire.Image)
	return img, wire.DecodePayload(body, img)
}

// applyWALRecord decodes one logged record as recovery does and applies it.
func (s *Server) applyWALRecord(rec wal.Record) error {
	r := recordKinds[rec.Type]()
	if err := wire.DecodePayload(rec.Data, r); err != nil {
		return err
	}
	s.mu.Lock()
	s.applyLocked(r)
	s.mu.Unlock()
	return nil
}

// writeJSONLog writes a log as a JSON-era MDS did: each record
// {"seq":N,"type":T,"data":…}, numbered from 1, after its length and CRC.
func writeJSONLog(t testing.TB, path string, recs ...wal.Item) {
	t.Helper()
	var log []byte
	for i, it := range recs {
		body, err := json.Marshal(struct {
			Seq  int         `json:"seq"`
			Type string      `json:"type"`
			Data interface{} `json:"data"`
		}{i + 1, it.Type, it.Payload})
		if err != nil {
			t.Fatal(err)
		}
		log = binary.BigEndian.AppendUint32(log, uint32(len(body)))
		log = binary.BigEndian.AppendUint32(log, crc32.ChecksumIEEE(body))
		log = append(log, body...)
	}
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
}
