package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// record is one journaled change to the MDS's local layer: its entries and
// the subtree roots it owns. That state changes in one place, applyLocked,
// and only by a record: a live body builds one and commits it under s.mu
// (journal.Commit enqueues and applies it); recovery applies the snapshot
// image and then the logged records with the same method. GL mutations are
// not journaled here: their durability home is the Monitor's WAL (every
// GLUpdate is journaled there) and the join/heartbeat GL refresh restores the
// replica. Nor are the index, its overrides, the counters or newPaths.
type record = wal.Entry

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

func (r *walEntryRec) RecType() string { return r.op }
func (*walRenameRec) RecType() string  { return "rename" }
func (*walInstallRec) RecType() string { return "install_trees" }
func (*walRemoveRec) RecType() string  { return "remove" }

// A legacy install is never logged: recovery reads it, and applyLocked
// applies its install().
func (*legacyInstallRec) RecType() string { return "install" }

// recordKinds makes an empty record of each type the log holds, for recovery
// to decode into.
var recordKinds = map[string]func() record{
	"create":        func() record { return &walEntryRec{op: "create"} },
	"setattr":       func() record { return &walEntryRec{op: "setattr"} },
	"rename":        func() record { return &walRenameRec{} },
	"install_trees": func() record { return &walInstallRec{} },
	"install":       func() record { return &legacyInstallRec{} },
	"remove":        func() record { return &walRemoveRec{} },
}

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
		var paths wire.Paths
		if head < len(t.Nodes) {
			paths = wire.PathsOf([]wire.Subtree{t})
		}
		for i := head; i < len(t.Nodes); i++ {
			if room == 0 {
				next()
				run = -1
			}
			n := t.Nodes[i]
			if run < 0 || int(n.Parent) < run {
				run = i
				rec.Trees = append(rec.Trees, wire.Subtree{Path: paths.At(i)})
				n.Parent, n.Name = 0, ""
			} else {
				n.Parent -= int32(run)
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

// The snapshot image (snapshot.img) is the journal's image file (wal) around
// a wire.Image. GL entries are not persisted — the join refresh restores the
// replica — but the GL version is, so a restarted server rejoins with
// staleness detection intact.
func (s *Server) walPath() string          { return filepath.Join(s.cfg.WALDir, "mds.wal") }
func (s *Server) imagePath() string        { return filepath.Join(s.cfg.WALDir, "snapshot.img") }
func (s *Server) jsonSnapshotPath() string { return filepath.Join(s.cfg.WALDir, "snapshot.json") }

// machine is what the MDS gives its journal.
func (s *Server) machine() wal.Machine[record] {
	return wal.Machine[record]{
		Kinds: recordKinds, Apply: s.applyLocked, Image: s.imageLocked, Load: s.loadImage, Lock: s.mu.RLocker(),
		//d2vet:ignore statcheck the tail's address only: the journal writes it under s.mu and reads it under its read side
		Tail: &s.tail, Degraded: &s.walDegraded, Rec: s.rec,
	}
}

// openJournal recovers the local layer from the snapshot image and the log
// past its horizon, then keeps journaling to them. Called from Start before
// the join, so the recovered subtrees become the join's claims.
func (s *Server) openJournal() error {
	if s.cfg.WALDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.WALDir, 0o755); err != nil {
		return fmt.Errorf("server: wal dir: %w", err)
	}
	j, err := wal.OpenJournal(s.walPath(), s.imagePath(), s.machine())
	if err != nil {
		return err
	}
	s.journal = j
	// A snapshot.json goes once the image holds its state: when recovery
	// loaded it, for want of an image, that takes a compaction first. A crash
	// before the removal is durable leaves both, and the image wins.
	path := s.jsonSnapshotPath()
	if _, err := os.Stat(path); err == nil {
		if _, err = os.Stat(s.imagePath()); os.IsNotExist(err) {
			err = j.Compact()
		}
		if err == nil {
			err = os.Remove(path)
		}
		if err != nil {
			_ = j.Close()
			return fmt.Errorf("server: upgrade %s: %w", path, err)
		}
	}
	return nil
}

// closeJournal flushes and closes the journal.
func (s *Server) closeJournal() { _ = s.journal.Close() }

// loadImage applies the snapshot image, through the install_trees arm, and
// returns its horizon. Without an image, a snapshot.json an older MDS wrote
// is applied instead (loadJSONLocked).
func (s *Server) loadImage(body []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if body == nil {
		return s.loadJSONLocked()
	}
	img, err := wire.DecodeImage(body)
	if err != nil {
		return 0, err
	}
	s.glVersion = img.GLVersion
	s.store.reserve(len(img.Tree.Nodes))
	s.applyLocked(&walInstallRec{Roots: img.Roots, Trees: []wire.Subtree{img.Tree}})
	s.hot.Merge(img.OpCounts)
	return img.Horizon, nil
}

// loadJSONLocked applies the snapshot.json an MDS wrote before the image, if any,
// as the install record legacyInstallRec.install makes of its entries, and
// returns its horizon. openJournal then writes the state back as an image.
func (s *Server) loadJSONLocked() (int64, error) {
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
	s.glVersion = old.GLVersion
	s.applyLocked(rec)
	s.hot.Merge(old.OpCounts)
	return old.WALSeq, nil
}

// applyLocked makes one record's change. Callers hold s.mu.
func (s *Server) applyLocked(rec record) {
	if old, ok := rec.(*legacyInstallRec); ok {
		rec = old.install()
	}
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

// commitInstallLocked takes ownership of trees, each at its root, in the
// install records installRecords cuts them into, or in one record when there
// is no log whose record size to keep under.
func (s *Server) commitInstallLocked(trees []wire.Subtree) {
	if s.journal.Log() == nil {
		rec := &walInstallRec{Roots: make([]string, len(trees)), Trees: trees}
		for i, t := range trees {
			rec.Roots[i] = t.Path
		}
		s.journal.Commit(rec)
		return
	}
	for _, rec := range installRecords(trees) {
		s.journal.Commit(rec)
	}
}

// imageLocked captures the GL version, the owned roots and the local layer;
// the horizon and the access counters are added as the image is written.
func (s *Server) imageLocked() wal.Image {
	img := &wire.Image{GLVersion: s.glVersion, Roots: slices.Collect(maps.Keys(s.subtrees)), Tree: s.store.tree("/", true)}
	return func(b []byte, horizon int64) []byte {
		img.Horizon, img.OpCounts = horizon, s.hot.Counts()
		return wire.AppendImage(b, img)
	}
}
