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

// record is one journaled change to the MDS's local layer: its entries and
// the subtree roots it owns. That state changes in one place, applyLocked,
// and only by a record: a live body builds one, enqueues it and applies it
// under s.mu (commitLocked); recovery applies the snapshot image and then the
// logged records with the same method. GL mutations are not journaled here:
// their durability home is the Monitor's WAL (every GLUpdate is journaled
// there) and the join/heartbeat GL refresh restores the replica. Nor are the
// index, its overrides, the counters or newPaths.
type record interface{ recType() string }

// walEntryRec is a create or setattr (op): the committed post-op entry,
// installed verbatim.
type walEntryRec struct {
	Entry wire.Entry `json:"entry"`
	op    string
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

// walSubtreeRec is an install (op; with entries, chunked under
// MaxRecordSize) or a remove (root only) of an owned subtree.
type walSubtreeRec struct {
	Root    string       `json:"root"`
	Entries []wire.Entry `json:"entries,omitempty"`
	op      string
}

func (r *walEntryRec) recType() string   { return r.op }
func (*walRenameRec) recType() string    { return "rename" }
func (r *walSubtreeRec) recType() string { return r.op }

// The snapshot image is applied as a record that is never logged.
func (*snapshotState) recType() string { return "snapshot" }

// installChunk bounds entries per install record so a large subtree ships
// as several records instead of tripping wal.MaxRecordSize.
const installChunk = 2048

// snapshotState is the periodic namespace snapshot (snapshot.json): the
// local-layer image holding every record up to WALSeq and none after it. GL
// entries are not persisted — the join refresh restores the replica — but the
// GL version is, so a restarted server rejoins with staleness detection
// intact.
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
// every WAL record past the snapshot's horizon, in commit order, each applied
// once. The horizon is exact (writeSnapshot), which matters: replay is not
// idempotent, since a create replayed under a directory the image already
// renamed would come back under the old name.
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
		s.applyLocked(&snap)
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

// applyWALRecord decodes one journaled record and applies it. Unknown record
// types are skipped, so an older binary replaying a newer log degrades
// instead of failing the whole recovery.
func (s *Server) applyWALRecord(rec wal.Record) error {
	var r record
	switch rec.Type {
	case "create", "setattr":
		r = &walEntryRec{op: rec.Type}
	case "rename":
		r = &walRenameRec{}
	case "install", "remove":
		r = &walSubtreeRec{op: rec.Type}
	default:
		return nil
	}
	if err := json.Unmarshal(rec.Data, r); err != nil {
		return fmt.Errorf("server: wal record %d: %w", rec.Seq, err)
	}
	s.mu.Lock()
	s.applyLocked(r)
	s.mu.Unlock()
	return nil
}

// applyLocked makes one record's change. Callers hold s.mu.
func (s *Server) applyLocked(rec record) {
	switch r := rec.(type) {
	case *walEntryRec:
		s.store.put(r.Entry, false)
	case *walRenameRec:
		s.store.rename(r.Path, r.NewName)
	case *walSubtreeRec:
		if r.op == "remove" {
			s.dropSubtreeLocked(r.Root)
		} else {
			s.installLocked(r.Root, r.Entries)
		}
	case *snapshotState:
		for _, root := range r.Subtrees {
			s.subtrees[root] = true
		}
		for _, e := range r.Entries {
			s.store.put(e, false)
		}
	}
	if s.applied != nil {
		s.applied()
	}
}

// commitLocked enqueues a record to the journal, notes its ticket as the
// tail, and applies it. The enqueue never blocks; callers hold s.mu (write
// side), so the log's order is the apply order, and answer only after waiting
// on the tail they noted before unlocking: flush windows commit in order, so
// that covers every record the answer can reflect.
func (s *Server) commitLocked(rec record) {
	if s.journal != nil {
		s.tail = s.journal.Enqueue(rec.recType(), rec)
	}
	s.applyLocked(rec)
}

// commitInstallLocked takes ownership of the subtree at root in install
// records of at most installChunk entries.
func (s *Server) commitInstallLocked(root string, entries []wire.Entry) {
	for off := 0; off == 0 || off < len(entries); off += installChunk {
		s.commitLocked(&walSubtreeRec{op: "install", Root: root, Entries: entries[off:min(off+installChunk, len(entries))]})
	}
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

// snapshotEntriesLocked copies out every local-layer entry: those of the
// owned subtrees, and any left outside them (a create under a root the index
// still routes here after its uninstall), which are state as much as the
// rest.
func (s *Server) snapshotEntriesLocked() []wire.Entry {
	entries := make([]wire.Entry, 0, s.store.len())
	s.store.walk("/", func(e *wire.Entry, gl bool) {
		if !gl {
			entries = append(entries, *e)
		}
	})
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

// writeSnapshot captures the local-layer image, writes it atomically (tmp +
// rename + dir sync), and truncates the WAL below its horizon: the sequence
// number of the newest record the image holds. The image and the tail ticket
// are taken under one lock, and a record enqueued and applied but not yet
// flushed is in the image before it has a number, so the horizon is the
// tail's number once it is durable; without a tail, or when its flush failed,
// it is the log's, read with the image. The log keeps the horizon record
// itself, so a log reopened after the truncation numbers on past it.
func (s *Server) writeSnapshot() error {
	s.mu.RLock()
	tail, seq := s.tail, s.wlog.Seq()
	snap := snapshotState{
		GLVersion: s.glVersion,
		Subtrees:  make([]string, 0, len(s.subtrees)),
		Entries:   s.snapshotEntriesLocked(),
	}
	for root := range s.subtrees {
		snap.Subtrees = append(snap.Subtrees, root)
	}
	s.mu.RUnlock()
	if tail != nil {
		if n, err := tail.Wait(); err == nil {
			seq = n
		}
	}
	snap.WALSeq = seq
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
	if err := s.wlog.TruncateBefore(snap.WALSeq); err != nil {
		return err
	}
	s.snapshots.Add(1)
	return nil
}
