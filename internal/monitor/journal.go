package monitor

import (
	"strings"

	"d2tree/internal/namespace"
	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// record is one journaled state transition, logged under its RecType. The
// Monitor's journaled state is the global layer (entries and version), the
// subtree owners with the index routed from them, and the namespace tree. It
// changes in one place, applyLocked, and only by a record: a live handler
// builds one and commits it under m.mu (journal.Commit enqueues and applies
// it); recovery loads the image and applies the logged records past it with
// the same method. Membership is not journaled: servers re-join a restarted
// Monitor.
type record = wal.Entry

// layerChunk keeps a gl_layer record far below wal.MaxRecordSize.
const layerChunk = 2048

// recordKinds makes an empty record of each type the log holds, for recovery
// to decode into.
var recordKinds = map[string]func() record{
	"gl_update": func() record { return &wire.GLUpdateRecord{} },
	"owner":     func() record { return &wire.OwnerRecord{} },
	"ll_paths":  func() record { return &wire.LLPathsRecord{} },
	"gl_layer":  func() record { return &wire.LayerRecord{} },
}

// applyLocked makes one record's state change. It reads the member table
// only to route the index to a live owner; on replay nobody has joined yet,
// and the joins that follow route it. Callers hold m.mu.
func (m *Monitor) applyLocked(rec record) {
	// Each kind applies in a method of its own, the small ones kept out of
	// line, so no kind's locals sit in the frame every record passes
	// through: a gl_update, applied on the fresh goroutine of its handler,
	// then fits the stack that goroutine started with instead of copying it
	// to a larger one.
	switch r := rec.(type) {
	case *wire.GLUpdateRecord:
		m.applyGLUpdateLocked(r)
	case *wire.OwnerRecord:
		m.applyOwnerLocked(r)
	case *wire.LLPathsRecord:
		m.applyLLPathsLocked(r)
	case *wire.LayerRecord:
		m.applyLayerLocked(r)
	}
	if m.applied != nil {
		m.applied()
	}
}

func (m *Monitor) applyGLUpdateLocked(r *wire.GLUpdateRecord) {
	if e, ok := m.glEntries[r.Entry.Path]; ok {
		*e = r.Entry
	} else {
		e := r.Entry
		m.glEntries[e.Path] = &e
	}
	if r.Op == "create" {
		m.mirror(r.Entry)
	}
	m.glVersion = max(m.glVersion, r.GLVersion)
}

//go:noinline
func (m *Monitor) applyOwnerLocked(r *wire.OwnerRecord) {
	m.setOwnerLocked(r.Root, r.Server)
	m.indexVer++
}

//go:noinline
func (m *Monitor) applyLLPathsLocked(r *wire.LLPathsRecord) {
	for _, e := range r.Entries {
		m.mirror(e)
	}
}

func (m *Monitor) applyLayerLocked(r *wire.LayerRecord) {
	if r.Reset {
		m.glEntries = make(map[string]*wire.Entry, len(r.Entries))
		m.subtreeOwner = make(map[string]int, len(r.Owners))
		m.index = make(map[string]string, len(r.Owners))
	}
	for _, e := range r.Entries {
		m.glEntries[e.Path] = &e
	}
	for _, o := range r.Owners {
		m.setOwnerLocked(o.Root, o.Server)
	}
	m.glVersion = max(m.glVersion, r.GLVersion)
	m.indexVer++
}

// mirror adds a path to the authoritative tree. The tree keeps the name, so
// it is copied out of the decoded message, which would otherwise stay in
// memory beside every name it carried.
func (m *Monitor) mirror(e wire.Entry) {
	if e.Kind == wire.EntryDir {
		_, _ = m.tree.MkdirAll(strings.Clone(e.Path))
	} else {
		_, _ = m.tree.AddFile(strings.Clone(e.Path))
	}
}

// setOwnerLocked gives root to server id and routes the index to it while it
// is a live member, dropping the route otherwise.
func (m *Monitor) setOwnerLocked(root string, id int) {
	m.subtreeOwner[root] = id
	if id >= 0 && id < len(m.members) && m.members[id].alive {
		m.index[root] = m.members[id].addr
	} else {
		delete(m.index, root)
	}
}

// commitLayerLocked journals and applies a re-evaluated global layer in
// gl_layer chunks; every chunk carries the one new GL version.
func (m *Monitor) commitLayerLocked(gl []wire.Entry, owners []wire.OwnerRecord) {
	v := m.glVersion + 1
	for off := 0; off == 0 || off < max(len(gl), len(owners)); off += layerChunk {
		m.journal.Commit(&wire.LayerRecord{Reset: off == 0, GLVersion: v, Entries: chunk(gl, off), Owners: chunk(owners, off)})
	}
}

func chunk[T any](s []T, off int) []T {
	return s[min(off, len(s)):min(off+layerChunk, len(s))]
}

// durably runs fn under m.mu and returns its answer once every record
// enqueued so far is durable: no response carries state the log could still
// lose. The wait is outside the lock, so concurrent writers share one fsync.
func durably[T any](m *Monitor, fn func() (T, error)) (T, error) {
	m.mu.Lock()
	resp, err := fn()
	tail := m.journal.Tail()
	m.mu.Unlock()
	m.journal.Wait(tail)
	return resp, err
}

// machine is what the Monitor gives its journal.
func (m *Monitor) machine() wal.Machine[record] {
	return wal.Machine[record]{
		Kinds: recordKinds, Apply: m.applyLocked, Image: m.imageLocked, Load: m.loadImage, Lock: &m.mu, Rec: m.rec,
	}
}

// imageLocked captures the journaled state: the GL and its version, the
// subtree owners, and the namespace tree, in pre-order.
func (m *Monitor) imageLocked() wal.Image {
	img := &wire.MonitorImage{GLVersion: m.glVersion, GL: m.glSnapshotLocked(), Owners: make(map[string]int64, len(m.subtreeOwner)),
		Tree: wire.Subtree{Path: "/", Nodes: namespace.AppendSubtree(make([]wire.SubtreeNode, 0, m.tree.Len()), m.tree.Root())}}
	for root, id := range m.subtreeOwner {
		img.Owners[root] = int64(id)
	}
	return func(horizon int64) any {
		img.Horizon = horizon
		return img
	}
}

// loadImage applies an image and returns its horizon: its tree's paths are
// added to the namespace the Monitor was started with, and its GL and owners
// replace the boot layer's as a re-evaluation's do. Without an image, the
// boot layer is the state the log starts from: applied, never logged.
func (m *Monitor) loadImage(body []byte) (int64, error) {
	if body == nil {
		gl, owners := m.layerLocked()
		m.applyLocked(&wire.LayerRecord{Reset: true, GLVersion: 1, Entries: gl, Owners: owners})
		return 0, nil
	}
	img := new(wire.MonitorImage)
	if err := wire.DecodePayload(body, img); err != nil {
		return 0, err
	}
	m.tree.Merge(img.Tree)
	owners := make([]wire.OwnerRecord, 0, len(img.Owners))
	for root, id := range img.Owners {
		owners = append(owners, wire.OwnerRecord{Root: root, Server: int(id)})
	}
	m.applyLocked(&wire.LayerRecord{Reset: true, GLVersion: img.GLVersion, Entries: img.GL, Owners: owners})
	return img.Horizon, nil
}
