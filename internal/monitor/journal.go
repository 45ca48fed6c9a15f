package monitor

import (
	"encoding/json"
	"fmt"
	"strings"

	"d2tree/internal/obs"
	"d2tree/internal/wal"
	"d2tree/internal/wire"
)

// record is one journaled state transition, logged under its recType. The
// Monitor's journaled state is the global layer (entries and version), the
// subtree owners with the index routed from them, and the namespace tree. It
// changes in one place, applyLocked, and only by a record: a live handler
// builds one, enqueues it and applies it under m.mu (commitLocked);
// recoverFromWAL reads the log back and applies the same records. Membership
// is not journaled: servers re-join a restarted Monitor.
type record interface{ recType() string }

// walGLUpdate commits one global-layer write: the entry as committed and the
// GL version it took. A create also mirrors the path into the tree.
type walGLUpdate struct {
	Op        string     `json:"op"`
	Entry     wire.Entry `json:"entry"`
	GLVersion int64      `json:"glVersion"`
}

// walOwner gives one subtree root to a server.
type walOwner struct {
	Root   string `json:"root"`
	Server int    `json:"server"`
}

// walLLPaths journals local-layer paths reported by heartbeat CreatedPaths
// deltas, so the authoritative tree a restarted Monitor materialises
// failover pushes from includes entries created after bootstrap.
type walLLPaths struct {
	Entries []wire.Entry `json:"entries"`
}

// walLayer journals a global-layer re-evaluation: the new GL and subtree
// owner set, split into records of at most layerChunk entries and owners. The
// first (Reset) replaces both; the rest extend them.
type walLayer struct {
	Reset     bool         `json:"reset,omitempty"`
	GLVersion int64        `json:"glVersion"`
	Entries   []wire.Entry `json:"entries,omitempty"`
	Owners    []walOwner   `json:"owners,omitempty"`
}

// layerChunk keeps a gl_layer record far below wal.MaxRecordSize.
const layerChunk = 2048

func (*walGLUpdate) recType() string { return "gl_update" }
func (*walOwner) recType() string    { return "owner" }
func (*walLLPaths) recType() string  { return "ll_paths" }
func (*walLayer) recType() string    { return "gl_layer" }

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
	case *walGLUpdate:
		m.applyGLUpdateLocked(r)
	case *walOwner:
		m.applyOwnerLocked(r)
	case *walLLPaths:
		m.applyLLPathsLocked(r)
	case *walLayer:
		m.applyLayerLocked(r)
	}
	if m.applied != nil {
		m.applied()
	}
}

func (m *Monitor) applyGLUpdateLocked(r *walGLUpdate) {
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
func (m *Monitor) applyOwnerLocked(r *walOwner) {
	m.setOwnerLocked(r.Root, r.Server)
	m.indexVer++
}

//go:noinline
func (m *Monitor) applyLLPathsLocked(r *walLLPaths) {
	for _, e := range r.Entries {
		m.mirror(e)
	}
}

func (m *Monitor) applyLayerLocked(r *walLayer) {
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

// commitLocked enqueues a record to the journal, notes its ticket as the
// newest, and applies it. The enqueue never blocks; callers hold m.mu, so the
// log's order is the apply order, and answer only after waitDurable on the
// newest ticket (durably).
func (m *Monitor) commitLocked(rec record) {
	if m.journal != nil {
		m.tail = m.journal.Enqueue(rec.recType(), rec)
	}
	m.applyLocked(rec)
}

// commitLayerLocked journals and applies a re-evaluated global layer in
// gl_layer chunks; every chunk carries the one new GL version.
func (m *Monitor) commitLayerLocked(gl []wire.Entry, owners []walOwner) {
	v := m.glVersion + 1
	for off := 0; off == 0 || off < max(len(gl), len(owners)); off += layerChunk {
		m.commitLocked(&walLayer{Reset: off == 0, GLVersion: v, Entries: chunk(gl, off), Owners: chunk(owners, off)})
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
	tail := m.tail
	m.mu.Unlock()
	m.waitDurable(tail)
	return resp, err
}

// waitDurable parks until the ticket's flush window is fsynced; windows
// flush in order, so every earlier record is then durable too. A failed
// window latches journalDegraded and records one event: the Monitor keeps
// serving from memory (availability over durability), and the stat surfaces
// in MonitorStats and heartbeat responses.
func (m *Monitor) waitDurable(t *wal.Ticket) {
	if t == nil {
		return
	}
	if _, err := t.Wait(); err != nil && m.journalDegraded.CompareAndSwap(false, true) {
		m.rec.Record(obs.Event{
			Kind:   obs.KindCluster,
			Op:     "journal_degraded",
			Detail: "WAL append failed; continuing memory-only",
			Err:    err.Error(),
		})
	}
}

// recoverFromWAL replays the journal over the freshly computed initial
// partition (deterministic given the same namespace): each record is decoded
// and applied as the handler that logged it applied it. Unknown record types
// are skipped for forward compatibility. It runs in New, before m is shared.
func (m *Monitor) recoverFromWAL(path string) error {
	return wal.Replay(path, func(rec wal.Record) error {
		var r record
		switch rec.Type {
		case "gl_update":
			r = &walGLUpdate{}
		case "owner":
			r = &walOwner{}
		case "ll_paths":
			r = &walLLPaths{}
		case "gl_layer":
			r = &walLayer{}
		default:
			return nil
		}
		if err := json.Unmarshal(rec.Data, r); err != nil {
			return fmt.Errorf("monitor: wal %s: %w", rec.Type, err)
		}
		m.applyLocked(r)
		return nil
	})
}
