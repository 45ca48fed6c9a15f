package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"d2tree/internal/obs"
	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// WAL record payloads journaled by the MDS serving path. GL mutations are
// not journaled here: their durability home is the Monitor's WAL (every
// GLUpdate is journaled there) and the join/heartbeat GL refresh restores
// the replica, so the MDS log carries only local-layer state.
type walEntryRec struct {
	// Entry is the committed post-op entry; replay reinstalls it verbatim,
	// which makes re-applying a record idempotent.
	Entry wire.Entry `json:"entry"`
}

// AppendJSON makes the record a wal.Appender: the create and setattr records
// of the serving path are encoded by hand, into what encoding/json writes for
// them, instead of by reflection.
func (r *walEntryRec) AppendJSON(b []byte) []byte {
	e := &r.Entry
	b = append(b, `{"entry":{"path":`...)
	b = appendJSONString(b, e.Path)
	b = append(b, `,"kind":`...)
	b = strconv.AppendInt(b, int64(e.Kind), 10)
	if e.Size != 0 {
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, e.Size, 10)
	}
	if e.Mode != 0 {
		b = append(b, `,"mode":`...)
		b = strconv.AppendUint(b, uint64(e.Mode), 10)
	}
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, e.Version, 10)
	return append(b, "}}"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Quotes, backslashes
// and control characters are escaped; everything else (including multi-byte
// UTF-8) passes through verbatim, which json.Unmarshal accepts.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

type walRenameRec struct {
	Path    string `json:"path"`
	NewName string `json:"newName"`
}

// walSubtreeRec journals migration installs (with entries, chunked under
// MaxRecordSize) and removals (root only).
type walSubtreeRec struct {
	Root    string       `json:"root"`
	Entries []wire.Entry `json:"entries,omitempty"`
}

// installChunk bounds entries per install record so a large subtree ships
// as several records instead of tripping wal.MaxRecordSize.
const installChunk = 2048

// snapshotState is the periodic namespace snapshot (snapshot.json): the
// local-layer image at WALSeq, after which the log is truncated. GL entries
// are not persisted — the join refresh restores the replica — but the GL
// version is, so a restarted server rejoins with staleness detection intact.
type snapshotState struct {
	WALSeq    int64            `json:"walSeq"`
	GLVersion int64            `json:"glVersion"`
	Subtrees  []string         `json:"subtrees"`
	Entries   []wire.Entry     `json:"entries"`
	OpCounts  map[string]int64 `json:"opCounts,omitempty"`
}

func (s *Server) walPath() string      { return filepath.Join(s.cfg.WALDir, "mds.wal") }
func (s *Server) snapshotPath() string { return filepath.Join(s.cfg.WALDir, "snapshot.json") }

// openJournal recovers local state from snapshot+WAL replay, then opens the
// log for appending behind the group-commit batcher. Called from Start
// before the join, so the recovered subtrees become the join's claims.
func (s *Server) openJournal() error {
	if s.cfg.WALDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.WALDir, 0o755); err != nil {
		return fmt.Errorf("server: wal dir: %w", err)
	}
	if err := s.recoverFromDisk(); err != nil {
		return err
	}
	l, err := wal.Open(s.walPath())
	if err != nil {
		return err
	}
	s.wlog = l
	s.journal = wal.NewBatcher(l)
	return nil
}

// recoverFromDisk rebuilds the local layer: the snapshot image first, then
// every WAL record past the snapshot's horizon, in commit order. Replay is
// idempotent (records re-install committed state), so a snapshot cut
// conservatively below the batcher's in-flight window is safe.
func (s *Server) recoverFromDisk() error {
	var snapSeq int64
	data, err := os.ReadFile(s.snapshotPath())
	switch {
	case err == nil:
		var snap snapshotState
		if jerr := json.Unmarshal(data, &snap); jerr != nil {
			return fmt.Errorf("server: snapshot corrupt: %w", jerr)
		}
		snapSeq = snap.WALSeq
		s.mu.Lock()
		s.glVersion = snap.GLVersion
		for _, root := range snap.Subtrees {
			s.subtrees[root] = true
		}
		for _, e := range snap.Entries {
			s.store.put(e, false)
		}
		s.mu.Unlock()
		s.hot.Merge(snap.OpCounts)
	case os.IsNotExist(err):
		// No snapshot yet: replay the whole log.
	default:
		return fmt.Errorf("server: read snapshot: %w", err)
	}

	recovered := 0
	err = wal.Replay(s.walPath(), func(rec wal.Record) error {
		if rec.Seq <= snapSeq {
			return nil
		}
		recovered++
		return s.applyWALRecord(rec)
	})
	if err != nil {
		return err
	}
	s.mu.RLock()
	entries, roots := s.store.len(), len(s.subtrees)
	s.mu.RUnlock()
	if recovered > 0 || roots > 0 {
		s.rec.Record(obs.Event{
			Kind: obs.KindCluster,
			Op:   "wal_recovered",
			Detail: fmt.Sprintf("%d records past snapshot seq %d: %d entries, %d subtrees",
				recovered, snapSeq, entries, roots),
		})
	}
	return nil
}

// applyWALRecord re-applies one journaled mutation to the in-memory state.
// Every case tolerates re-application: creates and setattrs install the
// committed entry verbatim, renames of an already-moved path no-op, install
// chunks are additive, removals of an absent root no-op.
func (s *Server) applyWALRecord(rec wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch rec.Type {
	case "create", "setattr":
		var p walEntryRec
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("server: wal record %d: %w", rec.Seq, err)
		}
		s.store.put(p.Entry, false)
	case "rename":
		var p walRenameRec
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("server: wal record %d: %w", rec.Seq, err)
		}
		s.store.rename(p.Path, p.NewName)
	case "install":
		var p walSubtreeRec
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("server: wal record %d: %w", rec.Seq, err)
		}
		s.installLocked(p.Root, p.Entries)
	case "remove":
		var p walSubtreeRec
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("server: wal record %d: %w", rec.Seq, err)
		}
		s.dropSubtreeLocked(p.Root)
	default:
		// Unknown record types are skipped, so an older binary replaying a
		// newer log degrades instead of failing the whole recovery.
	}
	return nil
}

// journalLocked enqueues one mutation record into the group-commit window.
// Callers hold s.mu (write side) so WAL order matches commit order; they
// Wait on the ticket after unlocking. Returns nil when memory-only.
func (s *Server) journalLocked(recType string, payload interface{}) *wal.Ticket {
	if s.journal == nil {
		return nil
	}
	return s.journal.Enqueue(recType, payload)
}

// journalInstallLocked journals an installed subtree in bounded chunks.
func (s *Server) journalInstallLocked(root string, entries []wire.Entry) []*wal.Ticket {
	if s.journal == nil {
		return nil
	}
	if len(entries) == 0 {
		return []*wal.Ticket{s.journal.Enqueue("install", &walSubtreeRec{Root: root})}
	}
	var tickets []*wal.Ticket
	for off := 0; off < len(entries); off += installChunk {
		end := off + installChunk
		if end > len(entries) {
			end = len(entries)
		}
		tickets = append(tickets, s.journal.Enqueue("install", &walSubtreeRec{Root: root, Entries: entries[off:end]}))
	}
	return tickets
}

// waitDurable parks until the record's flush window is fsynced. A journal
// failure latches the degraded stat and lets the operation succeed: the
// availability-over-durability choice, matching the Monitor's journal.
func (s *Server) waitDurable(t *wal.Ticket) {
	if t == nil {
		return
	}
	if _, err := t.Wait(); err != nil {
		s.noteWalDegraded(err)
	}
}

// noteWalDegraded latches the degraded flag and records one event on the
// first failure only.
func (s *Server) noteWalDegraded(err error) {
	if s.walDegraded.CompareAndSwap(false, true) {
		s.rec.Record(obs.Event{Kind: obs.KindCluster, Op: "wal_degraded", Err: err.Error()})
	}
}

// snapshotEntriesLocked copies out the local-layer entries of every owned
// subtree. An owned root lying inside another owned subtree (a re-evaluation
// moved the cut above it) is covered by the outer walk and skipped.
func (s *Server) snapshotEntriesLocked() []wire.Entry {
	entries := make([]wire.Entry, 0, s.store.len())
	for root := range s.subtrees {
		nested := false
		for up := parentPath(root); up != "" && !nested; up = parentPath(up) {
			nested = s.subtrees[up]
		}
		if nested {
			continue
		}
		s.store.walk(root, func(e *wire.Entry, gl bool) {
			if !gl {
				entries = append(entries, *e)
			}
		})
	}
	return entries
}

// snapshotLoop periodically captures the namespace image and truncates the
// log behind it.
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SnapshotInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if err := s.writeSnapshot(); err != nil {
				s.rec.Record(obs.Event{Kind: obs.KindCluster, Op: "snapshot_failed", Err: err.Error()})
			}
		}
	}
}

// writeSnapshot captures the local-layer image at the log's current durable
// horizon, writes it atomically (tmp + rename + dir sync), and truncates
// the WAL below it. Records still in the batcher's window get seqs past the
// horizon and survive truncation; replaying them onto the snapshot is
// idempotent. The image is a walk of the owned subtrees, so the global-layer
// replica costs it nothing.
func (s *Server) writeSnapshot() error {
	s.mu.RLock()
	snap := snapshotState{
		WALSeq:    s.wlog.Seq(),
		GLVersion: s.glVersion,
		Subtrees:  make([]string, 0, len(s.subtrees)),
		Entries:   s.snapshotEntriesLocked(),
	}
	for root := range s.subtrees {
		snap.Subtrees = append(snap.Subtrees, root)
	}
	s.mu.RUnlock()
	sort.Strings(snap.Subtrees)
	sortByPath(snap.Entries)
	// The access counters have no non-destructive read: take them and put
	// them straight back. Increments landing in between stay live.
	counts := s.hot.Drain()
	s.hot.Merge(counts)
	snap.OpCounts = counts

	data, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	tmp := s.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.snapshotPath()); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := wal.SyncDir(s.cfg.WALDir); err != nil {
		return err
	}
	if err := s.wlog.TruncateBefore(snap.WALSeq + 1); err != nil {
		return err
	}
	s.snapshots.Add(1)
	return nil
}
