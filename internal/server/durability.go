package server

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

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

// recordKinds makes an empty record of each type the log holds, for recovery
// to decode into.
var recordKinds = map[string]func() record{
	"create":        func() record { return &wire.CreateRecord{} },
	"setattr":       func() record { return &wire.SetAttrRecord{} },
	"rename":        func() record { return &wire.RenameRequest{} },
	"install_trees": func() record { return &wire.InstallRecord{} },
	"remove":        func() record { return &wire.RemoveRecord{} },
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
func installRecords(trees []wire.Subtree) []*wire.InstallRecord {
	var recs []*wire.InstallRecord
	rec, room := &wire.InstallRecord{}, installChunk
	next := func() {
		recs = append(recs, rec)
		rec, room = &wire.InstallRecord{}, installChunk
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
// a wire.Image. Neither the GL entries nor the GL version are persisted: the
// join, which Start runs after recovery and before serving, restores both.
func (s *Server) walPath() string   { return filepath.Join(s.cfg.WALDir, "mds.wal") }
func (s *Server) imagePath() string { return filepath.Join(s.cfg.WALDir, "snapshot.img") }

// machine is what the MDS gives its journal.
func (s *Server) machine() wal.Machine[record] {
	return wal.Machine[record]{
		Kinds: recordKinds, Legacy: legacyRecords, Apply: s.applyLocked, Image: s.imageLocked, Load: s.loadImage, Lock: s.mu.RLocker(), Rec: s.rec,
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
	if err == nil {
		s.journal = j
	}
	return s.removeJSONSnapshot(err)
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
	img := new(wire.Image)
	if err := wire.DecodePayload(body, img); err != nil {
		return 0, err
	}
	s.store.reserve(len(img.Tree.Nodes))
	s.applyLocked(&wire.InstallRecord{Roots: img.Roots, Trees: []wire.Subtree{img.Tree}})
	s.hot.Merge(img.OpCounts)
	return img.Horizon, nil
}

// applyLocked makes one record's change. Callers hold s.mu.
func (s *Server) applyLocked(rec record) {
	switch r := rec.(type) {
	case *wire.CreateRecord:
		s.store.put(r.Entry, false)
	case *wire.SetAttrRecord:
		s.store.put(r.Entry, false)
	case *wire.RenameRequest:
		s.store.rename(r.Path, r.NewName)
	case *wire.InstallRecord:
		// An installed path belongs to the local layer from now on, even one
		// the global-layer replica held before a re-evaluation demoted it.
		for _, root := range r.Roots {
			s.subtrees[root] = true
		}
		s.store.graft(r.Trees)
	case *wire.RemoveRecord:
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
		rec := &wire.InstallRecord{Roots: make([]string, len(trees)), Trees: trees}
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

// imageLocked captures the owned roots and the local layer; the horizon and
// the access counters are added as the image is written.
func (s *Server) imageLocked() wal.Image {
	img := &wire.Image{Roots: slices.Collect(maps.Keys(s.subtrees)), Tree: s.store.tree("/", true)}
	return func(horizon int64) any {
		img.Horizon, img.OpCounts = horizon, s.hot.Counts()
		return img
	}
}
