package server

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
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

// walInstallRec is one chunk of an install (installRecords): it takes
// ownership of the subtree roots Roots and stores the nodes of Trees, at
// most installChunk of them. A subtree cut between chunks goes on in the
// next as subtrees rooted where the cut left it, so each record applies on
// its own. It is logged as {"roots":[…],"trees":"…"}, the trees in their
// wire encoding (wire.AppendSubtrees), base64 as encoding/json writes bytes.
type walInstallRec struct {
	Roots []string
	Trees []wire.Subtree
}

// AppendJSON makes the record a wal.Appender.
func (r *walInstallRec) AppendJSON(b []byte) []byte {
	b = append(b, `{"roots":[`...)
	for i, root := range r.Roots {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, root)
	}
	b = append(b, `],"trees":"`...)
	b = base64.StdEncoding.AppendEncode(b, wire.AppendSubtrees(nil, r.Trees))
	return append(b, `"}`...)
}

// MarshalJSON writes what AppendJSON does.
func (r *walInstallRec) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil), nil }

// UnmarshalJSON reads what AppendJSON writes.
func (r *walInstallRec) UnmarshalJSON(data []byte) error {
	var raw struct {
		Roots []string `json:"roots"`
		Trees []byte   `json:"trees"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	trees, err := wire.DecodeSubtrees(raw.Trees)
	if err != nil {
		return err
	}
	r.Roots, r.Trees = raw.Roots, trees
	return nil
}

// legacyInstallRec is the install record as it was written before installs
// were journaled as trees: one owned root and entries by full path. Replay
// reads it as the walInstallRec it stands for (install).
type legacyInstallRec struct {
	Root    string       `json:"root"`
	Entries []wire.Entry `json:"entries,omitempty"`
}

// install is r as a walInstallRec: the root, and each entry as a subtree of
// one node at its own path, put in the order it was logged.
func (r *legacyInstallRec) install() *walInstallRec {
	rec := &walInstallRec{Roots: []string{r.Root}, Trees: make([]wire.Subtree, len(r.Entries))}
	nodes := make([]wire.SubtreeNode, len(r.Entries))
	for i, e := range r.Entries {
		nodes[i] = wire.SubtreeNode{Kind: e.Kind, Size: e.Size, Mode: e.Mode, Version: e.Version}
		rec.Trees[i] = wire.Subtree{Path: e.Path, Nodes: nodes[i : i+1 : i+1]}
	}
	return rec
}

// walRemoveRec forgets an owned subtree and its local-layer entries.
type walRemoveRec struct {
	Root string `json:"root"`
}

func (r *walEntryRec) recType() string { return r.op }
func (*walRenameRec) recType() string  { return "rename" }
func (*walInstallRec) recType() string { return "install_trees" }
func (*walRemoveRec) recType() string  { return "remove" }

// A legacy install is never applied or logged as such: replay reads it and
// applies its install().
func (*legacyInstallRec) recType() string { return "install" }

// installChunk bounds the nodes of one install record, so a large install
// is journaled as several records instead of tripping wal.MaxRecordSize.
const installChunk = 2048

// installRecords cuts the install of trees, each to be owned at its root,
// into records of at most installChunk nodes, in order. A tree that does not
// fit in the room left is cut: its root goes in the record that holds its
// first node, and each run of the rest whose parent lies before the cut, or
// before the run, starts a subtree of its own at its full path, so the path
// of every node can still be built from the record alone. A tree with no
// nodes gives its root to a record all the same.
func installRecords(trees []wire.Subtree) []*walInstallRec {
	var recs []*walInstallRec
	rec, room := &walInstallRec{}, installChunk
	next := func() {
		recs = append(recs, rec)
		rec, room = &walInstallRec{}, installChunk
	}
	for _, t := range trees {
		if room == 0 {
			next()
		}
		rec.Roots = append(rec.Roots, t.Path)
		head := min(len(t.Nodes), room)
		if head > 0 {
			rec.Trees = append(rec.Trees, wire.Subtree{Path: t.Path, Nodes: t.Nodes[:head:head]})
			room -= head
		}
		run := -1 // the index in t.Nodes of the root of the subtree being filled
		for i := head; i < len(t.Nodes); i++ {
			if room == 0 {
				next()
				run = -1
			}
			n := t.Nodes[i]
			if run < 0 || n.Parent < run {
				run = i
				rec.Trees = append(rec.Trees, wire.Subtree{Path: nodePath(t, i)})
				n.Parent, n.Name = 0, ""
			} else {
				n.Parent -= run
			}
			last := &rec.Trees[len(rec.Trees)-1]
			last.Nodes = append(last.Nodes, n)
			room--
		}
	}
	if len(rec.Roots) > 0 || len(rec.Trees) > 0 {
		recs = append(recs, rec)
	}
	return recs
}

// nodePath spells out the full path of t.Nodes[i].
func nodePath(t wire.Subtree, i int) string {
	var names []string
	for ; i > 0; i = t.Nodes[i].Parent {
		names = append(names, t.Nodes[i].Name)
	}
	path := t.Path
	for k := len(names) - 1; k >= 0; k-- {
		path = childPath(path, names[k])
	}
	return path
}

// The snapshot image (snapshot.img) is a version byte, the body's length and
// CRC-32 (IEEE, as a log record's), 4 bytes big-endian each, then the body,
// a wire.Image. GL entries are not persisted — the join refresh restores the
// replica — but the GL version is, so a restarted server rejoins with
// staleness detection intact.
const (
	imageVersion = 1
	imageHead    = 9 // version, length and crc
)

func (s *Server) walPath() string          { return filepath.Join(s.cfg.WALDir, "mds.wal") }
func (s *Server) imagePath() string        { return filepath.Join(s.cfg.WALDir, "snapshot.img") }
func (s *Server) jsonSnapshotPath() string { return filepath.Join(s.cfg.WALDir, "snapshot.json") }

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
// every WAL record past the image's horizon, in commit order, each applied
// once. The horizon is exact (writeSnapshot), which matters: replay is not
// idempotent, since a create replayed under a directory the image already
// renamed would come back under the old name.
func (s *Server) recoverFromDisk() error {
	horizon, err := s.loadImage()
	if err != nil {
		return err
	}
	recovered := 0
	err = wal.Replay(s.walPath(), func(rec wal.Record) error {
		if rec.Seq <= horizon {
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
				recovered, horizon, entries, roots),
		})
	}
	return nil
}

// loadImage applies the snapshot image, through the install_trees arm, and
// returns its horizon (0 when there is none). Without an image, a
// snapshot.json an older MDS wrote is upgraded instead (upgradeJSON).
func (s *Server) loadImage() (int64, error) {
	img, err := readImage(s.imagePath())
	if os.IsNotExist(err) {
		return s.upgradeJSON()
	} else if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.glVersion = img.GLVersion
	s.store.reserve(len(img.Tree.Nodes))
	s.applyLocked(&walInstallRec{Roots: img.Roots, Trees: []wire.Subtree{img.Tree}})
	s.mu.Unlock()
	s.hot.Merge(img.OpCounts)
	return img.Horizon, s.removeJSON()
}

// readImage reads and checks the image at path. It refuses, naming the
// file, an image that is cut short, fails its CRC, or is of a version this
// MDS does not read, so nothing of a bad image is applied.
func readImage(path string) (*wire.Image, error) {
	data, err := os.ReadFile(path)
	switch {
	case err != nil:
		return nil, err
	case len(data) < imageHead || data[0] != imageVersion:
		return nil, fmt.Errorf("server: snapshot image %s is cut short or not version %d", path, imageVersion)
	case int64(binary.BigEndian.Uint32(data[1:])) != int64(len(data)-imageHead) ||
		crc32.ChecksumIEEE(data[imageHead:]) != binary.BigEndian.Uint32(data[5:]):
		return nil, fmt.Errorf("server: snapshot image %s fails its length or CRC check", path)
	}
	img, err := wire.DecodeImage(data[imageHead:])
	if err != nil {
		return nil, fmt.Errorf("server: snapshot image %s: %w", path, err)
	}
	return img, nil
}

// upgradeJSON applies the snapshot.json an MDS wrote before the image, if
// any, as the install record legacyInstallRec.install makes of its entries,
// and returns its horizon. It saves the state as an image with that horizon
// before it removes the JSON: a crash in between leaves both, and the image
// wins.
func (s *Server) upgradeJSON() (int64, error) {
	path := s.jsonSnapshotPath()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	var old struct {
		WALSeq           int64            `json:"walSeq"`
		GLVersion        int64            `json:"glVersion"`
		Subtrees         []string         `json:"subtrees"`
		OpCounts         map[string]int64 `json:"opCounts,omitempty"`
		legacyInstallRec                  // the entries
	}
	if err == nil {
		err = json.Unmarshal(data, &old)
	}
	if err != nil {
		return 0, fmt.Errorf("server: snapshot %s: %w", path, err)
	}
	rec := old.install()
	rec.Roots = old.Subtrees
	s.mu.Lock()
	s.glVersion = old.GLVersion
	s.applyLocked(rec)
	img := s.imageLocked()
	s.mu.Unlock()
	s.hot.Merge(old.OpCounts)
	img.Horizon = old.WALSeq
	if err := s.saveImage(img); err != nil {
		return 0, fmt.Errorf("server: upgrade %s: %w", path, err)
	}
	return old.WALSeq, s.removeJSON()
}

// removeJSON removes a snapshot.json the image holds the state of, and
// syncs the directory so the removal survives a crash.
func (s *Server) removeJSON() error {
	if err := os.Remove(s.jsonSnapshotPath()); os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	return wal.SyncDir(s.cfg.WALDir)
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
	case "install_trees":
		r = &walInstallRec{}
	case "install":
		r = &legacyInstallRec{}
	case "remove":
		r = &walRemoveRec{}
	default:
		return nil
	}
	if err := json.Unmarshal(rec.Data, r); err != nil {
		return fmt.Errorf("server: wal record %d: %w", rec.Seq, err)
	}
	if old, ok := r.(*legacyInstallRec); ok {
		r = old.install()
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
	case *walInstallRec:
		// An installed path belongs to the local layer from now on, even one
		// the global-layer replica held before a re-evaluation demoted it.
		for _, root := range r.Roots {
			s.subtrees[root] = true
		}
		s.store.graft(r.Trees)
	case *walRemoveRec:
		delete(s.subtrees, r.Root)
		s.store.dropSubtree(r.Root)
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

// commitInstallLocked takes ownership of trees, each at its root, in the
// install records installRecords cuts them into, or in one record when there
// is no journal whose record size to keep under.
func (s *Server) commitInstallLocked(trees []wire.Subtree) {
	if s.journal == nil {
		rec := &walInstallRec{Roots: make([]string, len(trees)), Trees: trees}
		for i, t := range trees {
			rec.Roots[i] = t.Path
		}
		s.commitLocked(rec)
		return
	}
	for _, rec := range installRecords(trees) {
		s.commitLocked(rec)
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

// writeSnapshot captures the local-layer image, writes it atomically
// (saveImage), and truncates the WAL below its horizon: the sequence number
// of the newest record the image holds. The image and the tail ticket are
// taken under one lock, and a record enqueued and applied but not yet flushed
// is in the image before it has a number, so the horizon is the tail's number
// once it is durable; without a tail, or when its flush failed, it is the
// log's, read with the image. The log keeps the horizon record itself, so a
// log reopened after the truncation numbers on past it.
func (s *Server) writeSnapshot() error {
	s.mu.RLock()
	tail, seq := s.tail, s.wlog.Seq()
	img := s.imageLocked()
	s.mu.RUnlock()
	if tail != nil {
		if n, err := tail.Wait(); err == nil {
			seq = n
		}
	}
	img.Horizon = seq
	if err := s.saveImage(img); err != nil {
		return err
	}
	if err := s.wlog.TruncateBefore(seq); err != nil {
		return err
	}
	s.snapshots.Add(1)
	return nil
}

// imageLocked captures the GL version, the owned roots and the local layer.
func (s *Server) imageLocked() *wire.Image {
	return &wire.Image{GLVersion: s.glVersion, Roots: slices.Collect(maps.Keys(s.subtrees)), Tree: s.store.tree("/", true)}
}

// saveImage adds the access counters to img and writes it atomically: tmp,
// fsync, rename, dir sync.
func (s *Server) saveImage(img *wire.Image) error {
	// The access counters have no non-destructive read: take them and put
	// them straight back. Increments landing in between stay live.
	img.OpCounts = s.hot.Drain()
	s.hot.Merge(img.OpCounts)
	data := wire.AppendImage(make([]byte, imageHead), img)
	data[0] = imageVersion
	binary.BigEndian.PutUint32(data[1:], uint32(len(data)-imageHead))
	binary.BigEndian.PutUint32(data[5:], crc32.ChecksumIEEE(data[imageHead:]))
	tmp := s.imagePath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.imagePath())
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return wal.SyncDir(s.cfg.WALDir)
}
