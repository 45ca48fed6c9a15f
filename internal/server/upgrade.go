package server

// What an MDS reads only to upgrade a data directory an older MDS wrote,
// reached only from openJournal: a snapshot.json in place of the image, and
// the install records of a JSON-era log. wal's upgrade decodes its other
// records into theirs by field names.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"d2tree/internal/wire"
)

func (s *Server) jsonSnapshotPath() string { return filepath.Join(s.cfg.WALDir, "snapshot.json") }

// legacyRecords decodes the install records of a JSON-era log:
// install_trees, {"roots":[…],"trees":"…"} with the trees in their wire
// encoding (wire.AppendSubtrees), base64; and an install from before installs
// were journaled as trees (legacyInstallRec).
var legacyRecords = map[string]func(data []byte) (record, error){
	"install_trees": func(data []byte) (record, error) {
		var raw struct {
			Roots []string `json:"roots"`
			Trees []byte   `json:"trees"`
		}
		if err := json.Unmarshal(data, &raw); err != nil {
			return nil, err
		}
		trees, err := wire.DecodeSubtrees(raw.Trees)
		return &wire.InstallRecord{Roots: raw.Roots, Trees: trees}, err
	},
	"install": func(data []byte) (record, error) {
		var old legacyInstallRec
		err := json.Unmarshal(data, &old)
		return old.install(), err
	},
}

// legacyInstallRec is the install record as it was written before installs
// were journaled as trees: one owned root and entries by full path.
type legacyInstallRec struct {
	Root    string       `json:"root"`
	Entries []wire.Entry `json:"entries,omitempty"`
}

// install is r as an install record: the root, and each entry as a subtree
// of one node at its own path, put in the order it was logged.
func (r *legacyInstallRec) install() *wire.InstallRecord {
	rec := &wire.InstallRecord{Roots: []string{r.Root}, Trees: make([]wire.Subtree, len(r.Entries))}
	nodes := make([]wire.SubtreeNode, len(r.Entries))
	for i, e := range r.Entries {
		nodes[i] = wire.SubtreeNode{Kind: e.Kind, Size: e.Size, Mode: e.Mode, Version: e.Version}
		rec.Trees[i] = wire.Subtree{Path: e.Path, Nodes: nodes[i : i+1 : i+1]}
	}
	return rec
}

// loadJSONLocked applies the snapshot.json an MDS wrote before the image, if
// any, as the install record legacyInstallRec.install makes of its entries,
// and returns its horizon. removeJSONSnapshot then removes it.
func (s *Server) loadJSONLocked() (int64, error) {
	path := s.jsonSnapshotPath()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	var old struct {
		WALSeq           int64            `json:"walSeq"`
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
	s.applyLocked(rec)
	s.hot.Merge(old.OpCounts)
	return old.WALSeq, nil
}

// removeJSONSnapshot finishes the open of a data directory that holds a
// snapshot.json, given the journal's error: the file goes once the image
// holds its state, which takes a compaction when recovery loaded it for want
// of an image. A crash before the removal is durable leaves both, and the
// image wins. A failure names the file.
func (s *Server) removeJSONSnapshot(err error) error {
	path := s.jsonSnapshotPath()
	if _, serr := os.Stat(path); serr != nil {
		return err
	}
	if err == nil {
		if _, err = os.Stat(s.imagePath()); os.IsNotExist(err) {
			err = s.journal.Compact()
		}
		if err == nil {
			err = os.Remove(path)
		}
		if err != nil {
			_ = s.journal.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("server: upgrade %s: %w", path, err)
	}
	return nil
}
