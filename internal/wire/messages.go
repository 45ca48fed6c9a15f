package wire

import "strconv"

// EntryKind tells a directory from a file. It is namespace.Kind too. Kind 0
// is a path that holds no entry: a shipped subtree links the entries beneath
// such a path through a kind-0 node, and an MDS holds one for each.
type EntryKind int

// Entry kinds.
const (
	EntryDir EntryKind = iota + 1
	EntryFile
)

// String implements fmt.Stringer.
func (k EntryKind) String() string {
	if k == EntryDir || k == EntryFile {
		return [...]string{"", "dir", "file"}[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// Entry is one metadata record as shipped between processes.
type Entry struct {
	Path    string    `json:"path"`
	Kind    EntryKind `json:"kind"`
	Size    int64     `json:"size,omitempty"`
	Mode    uint32    `json:"mode,omitempty"`
	Version int64     `json:"version"`
}

func (e *Entry) code(c *codec) {
	c.str(&e.Path)
	c.integer((*int)(&e.Kind))
	c.i64(&e.Size)
	c.u32(&e.Mode)
	c.i64(&e.Version)
}

// LookupRequest asks an MDS to resolve one path.
type LookupRequest struct {
	Path string `json:"path"`
}

func (m *LookupRequest) code(c *codec) { c.str(&m.Path) }

// EntryResponse is the one answer every op that names a single entry gets:
// the entry, or a redirect when the serving MDS does not hold the path (stale
// client cache). An entry-carrying response also grants a cache lease: the
// client may serve the entry locally for LeaseMS milliseconds, keyed to the
// granting server's IndexVer so index-version bumps (migration commits, GL
// re-evaluations) invalidate it. A committed create, setattr or rename grants
// one like a lookup does, so the writing client can pin its own write.
type EntryResponse struct {
	Entry    *Entry `json:"entry,omitempty"`
	Redirect string `json:"redirect,omitempty"` // address of the owning MDS
	// LeaseMS is the server-chosen cache lease in milliseconds (0 = the
	// server grants no lease; the client falls back to its own default).
	LeaseMS int64 `json:"leaseMs,omitempty"`
	// IndexVer is the serving MDS's cluster index version at grant time.
	IndexVer int64 `json:"indexVer,omitempty"`
}

func (m *EntryResponse) code(c *codec) {
	c.entryPtr(&m.Entry)
	c.str(&m.Redirect)
	c.i64(&m.LeaseMS)
	c.i64(&m.IndexVer)
}

// The per-op names of EntryResponse, kept so a call site says which op it
// answers. They are aliases: one struct, one codec case.
type (
	LookupResponse          = EntryResponse
	CreateResponse          = EntryResponse
	CreateWithAttrsResponse = EntryResponse
	SetAttrResponse         = EntryResponse
	RenameResponse          = EntryResponse
)

// RevalidateRequest asks the owning MDS whether a cached entry is still
// current: the cheap coherence probe of the client cache. Only the path and
// the cached version travel; no body is resent when they still agree.
type RevalidateRequest struct {
	Path    string `json:"path"`
	Version int64  `json:"version"`
}

func (m *RevalidateRequest) code(c *codec) {
	c.str(&m.Path)
	c.i64(&m.Version)
}

// RevalidateResponse renews the lease (Match, no Entry) or carries the
// current entry when the cached version is stale. Redirect as in
// EntryResponse.
type RevalidateResponse struct {
	Match    bool   `json:"match,omitempty"`
	Entry    *Entry `json:"entry,omitempty"`
	LeaseMS  int64  `json:"leaseMs,omitempty"`
	IndexVer int64  `json:"indexVer,omitempty"`
	Redirect string `json:"redirect,omitempty"`
}

func (m *RevalidateResponse) code(c *codec) {
	c.flag(&m.Match)
	c.entryPtr(&m.Entry)
	c.i64(&m.LeaseMS)
	c.i64(&m.IndexVer)
	c.str(&m.Redirect)
}

// CreateRequest creates a file or directory.
type CreateRequest struct {
	Path string    `json:"path"`
	Kind EntryKind `json:"kind"`
}

func (m *CreateRequest) code(c *codec) {
	c.str(&m.Path)
	c.integer((*int)(&m.Kind))
}

// SetAttrRequest updates metadata attributes (an "update" op in the paper's
// classification; triggers global-layer locking when the path is replicated).
type SetAttrRequest struct {
	Path string `json:"path"`
	Size int64  `json:"size"`
	Mode uint32 `json:"mode"`
}

func (m *SetAttrRequest) code(c *codec) {
	c.str(&m.Path)
	c.i64(&m.Size)
	c.u32(&m.Mode)
}

// ReaddirRequest lists a directory.
type ReaddirRequest struct {
	Path string `json:"path"`
}

func (m *ReaddirRequest) code(c *codec) { c.str(&m.Path) }

// ReaddirResponse lists child names (only those hosted on the serving MDS;
// a directory's children may span the GL/LL boundary). The listing carries
// the directory's own version and a lease so the client can renew its
// cached copy of the parent without a separate revalidation probe.
type ReaddirResponse struct {
	Names    []string `json:"names"`
	Redirect string   `json:"redirect,omitempty"`
	// DirVersion is the listed directory's entry version at serve time
	// (0 when the serving MDS holds no body for it).
	DirVersion int64 `json:"dirVersion,omitempty"`
	LeaseMS    int64 `json:"leaseMs,omitempty"`
	IndexVer   int64 `json:"indexVer,omitempty"`
}

func (m *ReaddirResponse) code(c *codec) {
	c.strs(&m.Names)
	c.str(&m.Redirect)
	c.i64(&m.DirVersion)
	c.i64(&m.LeaseMS)
	c.i64(&m.IndexVer)
}

// ReaddirPlusRequest lists a directory with child attributes.
type ReaddirPlusRequest struct {
	Path string `json:"path"`
}

func (m *ReaddirPlusRequest) code(c *codec) { c.str(&m.Path) }

// ReaddirPlusResponse returns the child entries themselves — the NFSv3
// READDIRPLUS idea applied to the D2-Tree serving path: one frame replaces
// the readdir + N-lookup pattern, and every returned entry is cacheable
// under the response's lease. Children that are subtree roots hosted on
// another MDS appear as placeholders with Version 0: their name and kind
// are authoritative, their body is not, and clients must not cache them.
type ReaddirPlusResponse struct {
	Entries  []Entry `json:"entries,omitempty"`
	Redirect string  `json:"redirect,omitempty"`
	// DirVersion is the listed directory's entry version, so the client can
	// renew the parent's cached copy alongside the children.
	DirVersion int64 `json:"dirVersion,omitempty"`
	LeaseMS    int64 `json:"leaseMs,omitempty"`
	IndexVer   int64 `json:"indexVer,omitempty"`
}

func (m *ReaddirPlusResponse) code(c *codec) {
	c.entries(&m.Entries)
	c.str(&m.Redirect)
	c.i64(&m.DirVersion)
	c.i64(&m.LeaseMS)
	c.i64(&m.IndexVer)
}

// CreateWithAttrsRequest creates a file or directory with its initial
// attributes in one operation (the fused create + setattr pair), committing
// a single version-1 entry under one journal record.
type CreateWithAttrsRequest struct {
	Path string    `json:"path"`
	Kind EntryKind `json:"kind"`
	Size int64     `json:"size,omitempty"`
	Mode uint32    `json:"mode,omitempty"`
}

func (m *CreateWithAttrsRequest) code(c *codec) {
	c.str(&m.Path)
	c.integer((*int)(&m.Kind))
	c.i64(&m.Size)
	c.u32(&m.Mode)
}

// Batch sub-operation kinds (BatchOp.Op values).
const (
	BatchLookup      = "lookup"
	BatchCreate      = "create"
	BatchSetAttr     = "setattr"
	BatchRevalidate  = "revalidate"
	BatchCreateAttrs = "create_attrs"
)

// BatchOp is one sub-operation of a TypeBatch frame: a flat union over the
// sub-op kinds. Path is required for every kind; Kind applies to creates,
// Size/Mode to setattr and create_attrs, Version to revalidate.
type BatchOp struct {
	Op      string    `json:"op"`
	Path    string    `json:"path"`
	Kind    EntryKind `json:"kind,omitempty"`
	Size    int64     `json:"size,omitempty"`
	Mode    uint32    `json:"mode,omitempty"`
	Version int64     `json:"version,omitempty"`
}

func (m *BatchOp) code(c *codec) {
	c.str(&m.Op)
	c.str(&m.Path)
	c.integer((*int)(&m.Kind))
	c.i64(&m.Size)
	c.u32(&m.Mode)
	c.i64(&m.Version)
}

// BatchRequest carries N independent sub-operations under one envelope. The
// server executes them in order, taking the store lock once per run of
// consecutive locally-owned sub-ops and committing their journal records in
// one group-commit window. HotPaths folds the client's coalesced popularity
// deltas (cache-served hits the server never observed) into the access
// counters that drive GL re-evaluation.
type BatchRequest struct {
	Ops      []BatchOp        `json:"ops"`
	HotPaths map[string]int64 `json:"hotPaths,omitempty"`
}

func (m *BatchRequest) code(c *codec) {
	m.Ops = sized(c, m.Ops, c.count(len(m.Ops), batchOpMin))
	for i := range m.Ops {
		m.Ops[i].code(c)
	}
	c.counts(&m.HotPaths)
}

// BatchResult is one sub-operation's outcome. Exactly like the standalone
// responses, an entry-carrying result grants a cache lease, a sub-op whose
// path migrated away mid-frame redirects individually (the rest of the
// frame still completes), and Err carries a per-sub-op failure. Atomicity
// is per sub-op: the frame as a whole promises nothing.
type BatchResult struct {
	Entry    *Entry `json:"entry,omitempty"`
	Match    bool   `json:"match,omitempty"`
	Redirect string `json:"redirect,omitempty"`
	Err      string `json:"err,omitempty"`
	LeaseMS  int64  `json:"leaseMs,omitempty"`
	IndexVer int64  `json:"indexVer,omitempty"`
}

func (m *BatchResult) code(c *codec) {
	c.entryPtr(&m.Entry)
	c.flag(&m.Match)
	c.str(&m.Redirect)
	c.str(&m.Err)
	c.i64(&m.LeaseMS)
	c.i64(&m.IndexVer)
}

// BatchResponse carries one result per request sub-op, in request order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

func (m *BatchResponse) code(c *codec) {
	m.Results = sized(c, m.Results, c.count(len(m.Results), batchResultMin))
	for i := range m.Results {
		m.Results[i].code(c)
	}
}

// RenameRequest renames a local-layer node (and its subtree) in place.
// Renames of global-layer paths or whole subtree roots are maintenance
// operations (they change the partition itself) and are rejected by servers.
type RenameRequest struct {
	Path    string `json:"path"`
	NewName string `json:"newName"`
}

func (m *RenameRequest) code(c *codec) {
	c.str(&m.Path)
	c.str(&m.NewName)
}

// LatencySummary reports a latency histogram's percentiles in microseconds.
type LatencySummary struct {
	Count  uint64 `json:"count"`
	MeanUS int64  `json:"meanUs"`
	P50US  int64  `json:"p50Us"`
	P90US  int64  `json:"p90Us"`
	P99US  int64  `json:"p99Us"`
	MaxUS  int64  `json:"maxUs"`
}

func (m *LatencySummary) code(c *codec) {
	c.u64(&m.Count)
	c.i64(&m.MeanUS)
	c.i64(&m.P50US)
	c.i64(&m.P90US)
	c.i64(&m.P99US)
	c.i64(&m.MaxUS)
}

// StatsResponse reports per-MDS counters for tests and operators.
type StatsResponse struct {
	Server     string `json:"server"`
	Ops        int64  `json:"ops"`
	Lookups    int64  `json:"lookups"`
	Creates    int64  `json:"creates"`
	SetAttrs   int64  `json:"setattrs"`
	Redirects  int64  `json:"redirects"`
	Entries    int    `json:"entries"`
	GLVersion  int64  `json:"glVersion"`
	IndexSize  int    `json:"indexSize"`
	SubtreeCnt int    `json:"subtreeCnt"`

	// RPC-layer health of the server's Monitor channel.
	MonRPC MetricsSnapshot `json:"monRpc"`
	// HeartbeatRTT summarises successful heartbeat round-trip latency.
	HeartbeatRTT LatencySummary `json:"heartbeatRtt"`
	// Transfer outcomes executed by this server.
	TransferOK   int64 `json:"transferOk"`
	TransferFail int64 `json:"transferFail"`
	// HeartbeatMisses counts heartbeat ticks whose Monitor call failed (the
	// load sample is merged back and re-shipped on the next success).
	HeartbeatMisses int64 `json:"heartbeatMisses"`

	// Client-cache coherence traffic served by this MDS: leases granted on
	// entry-carrying responses, and revalidation probes split by outcome
	// (hit = version matched, lease renewed without a body; miss = stale
	// version, current entry resent).
	LeasesGranted    int64 `json:"leasesGranted"`
	RevalidateHits   int64 `json:"revalidateHits"`
	RevalidateMisses int64 `json:"revalidateMisses"`

	// Compound-op traffic: frames carrying N sub-ops, the sub-ops inside
	// them, and readdirplus listings (entries + leases in one RPC).
	Batches     int64 `json:"batches,omitempty"`
	BatchSubOps int64 `json:"batchSubOps,omitempty"`
	ReaddirPlus int64 `json:"readdirPlus,omitempty"`

	// Durability counters (zero when the server runs memory-only). WAL
	// appends and group-commit flush windows come from the journal batcher;
	// Snapshots counts namespace snapshots written; WalDegraded latches
	// after the first journal failure (the server keeps serving).
	WalAppends  int64 `json:"walAppends,omitempty"`
	WalFlushes  int64 `json:"walFlushes,omitempty"`
	Snapshots   int64 `json:"snapshots,omitempty"`
	WalDegraded bool  `json:"walDegraded,omitempty"`
	// Subtrees lists the subtree roots this server currently owns, so an
	// offline checker (d2fsck) can prove no root is double-owned.
	Subtrees []string `json:"subtrees,omitempty"`

	// ServeIO counts the request frames this process's serving loops read
	// and the response frames they wrote, beside the read and write syscalls
	// that carried them: frames per syscall is how well pipelined bursts are
	// gathered. ConnIO is the same for the calls the process itself makes
	// (heartbeats, GL updates, transfers).
	ServeIO IOSnapshot `json:"serveIo"`
	ConnIO  IOSnapshot `json:"connIo"`
	// BadFrames counts the frames this process refused as malformed (see
	// wire.BadFrames).
	BadFrames int64 `json:"badFrames"`
}

func (m *StatsResponse) code(c *codec) {
	c.str(&m.Server)
	c.i64(&m.Ops)
	c.i64(&m.Lookups)
	c.i64(&m.Creates)
	c.i64(&m.SetAttrs)
	c.i64(&m.Redirects)
	c.integer(&m.Entries)
	c.i64(&m.GLVersion)
	c.integer(&m.IndexSize)
	c.integer(&m.SubtreeCnt)
	m.MonRPC.code(c)
	m.HeartbeatRTT.code(c)
	c.i64(&m.TransferOK)
	c.i64(&m.TransferFail)
	c.i64(&m.HeartbeatMisses)
	c.i64(&m.LeasesGranted)
	c.i64(&m.RevalidateHits)
	c.i64(&m.RevalidateMisses)
	c.i64(&m.Batches)
	c.i64(&m.BatchSubOps)
	c.i64(&m.ReaddirPlus)
	c.i64(&m.WalAppends)
	c.i64(&m.WalFlushes)
	c.i64(&m.Snapshots)
	c.flag(&m.WalDegraded)
	c.strs(&m.Subtrees)
	m.ServeIO.code(c)
	m.ConnIO.code(c)
	c.i64(&m.BadFrames)
}

// MonitorStatsResponse reports coordinator-side counters and membership.
type MonitorStatsResponse struct {
	Members []MemberInfo `json:"members"`
	// Heartbeats counts heartbeat requests processed.
	Heartbeats int64 `json:"heartbeats"`
	// TransfersPlanned counts transfer commands issued by the pending pool.
	TransfersPlanned int64 `json:"transfersPlanned"`
	// TransfersDone counts committed transfers (TransferDone received).
	TransfersDone int64 `json:"transfersDone"`
	// TransfersFailed counts NACKed transfers (TransferFailed received).
	TransfersFailed int64 `json:"transfersFailed"`
	// TransfersReissued counts in-flight transfers abandoned after their
	// deadline and returned to the planner.
	TransfersReissued int64 `json:"transfersReissued"`
	GLVersion         int64 `json:"glVersion"`
	IndexVer          int64 `json:"indexVer"`
	// JournalDegraded latches after the Monitor's first WAL append failure:
	// the cluster keeps running but a Monitor restart would lose journaled
	// state since the failure.
	JournalDegraded bool `json:"journalDegraded,omitempty"`
	// JournalAppends and JournalFlushes count the records the Monitor's
	// journal took and the fsync windows that committed them: their ratio is
	// group commit at work. Both read 0 without a journal.
	JournalAppends int64 `json:"journalAppends"`
	JournalFlushes int64 `json:"journalFlushes"`
	// ServeIO, ConnIO and BadFrames are the Monitor process's wire traffic,
	// as in StatsResponse.
	ServeIO   IOSnapshot `json:"serveIo"`
	ConnIO    IOSnapshot `json:"connIo"`
	BadFrames int64      `json:"badFrames"`
}

func (m *MonitorStatsResponse) code(c *codec) {
	m.Members = sized(c, m.Members, c.count(len(m.Members), memberMin))
	for i := range m.Members {
		m.Members[i].code(c)
	}
	c.i64(&m.Heartbeats)
	c.i64(&m.TransfersPlanned)
	c.i64(&m.TransfersDone)
	c.i64(&m.TransfersFailed)
	c.i64(&m.TransfersReissued)
	c.i64(&m.GLVersion)
	c.i64(&m.IndexVer)
	c.flag(&m.JournalDegraded)
	c.i64(&m.JournalAppends)
	c.i64(&m.JournalFlushes)
	m.ServeIO.code(c)
	m.ConnIO.code(c)
	c.i64(&m.BadFrames)
}

// MemberInfo is one row of the Monitor's member table.
type MemberInfo struct {
	ID    int     `json:"id"`
	Addr  string  `json:"addr"`
	Alive bool    `json:"alive"`
	Load  float64 `json:"load"`
	Ops   int64   `json:"ops"`
}

func (m *MemberInfo) code(c *codec) {
	c.integer(&m.ID)
	c.str(&m.Addr)
	c.flag(&m.Alive)
	c.f64(&m.Load)
	c.i64(&m.Ops)
}

// JoinRequest registers an MDS with the Monitor.
type JoinRequest struct {
	Addr string `json:"addr"`
	// RecoveredSubtrees lists subtree roots the server rebuilt from its WAL
	// and snapshot before joining (the recovery handshake). The Monitor
	// adopts a claim when the root has no live owner, so the rejoining
	// server keeps serving its recovered entries instead of receiving a
	// stale re-materialization.
	RecoveredSubtrees []string `json:"recoveredSubtrees,omitempty"`
}

func (m *JoinRequest) code(c *codec) {
	c.str(&m.Addr)
	c.strs(&m.RecoveredSubtrees)
}

// JoinResponse assigns the server its identity and initial state: the full
// global-layer replica, its local-layer subtrees, and the local index.
//
//d2vet:ignore leasecheck bootstrap payload between Monitor and MDS; entries seed server state and are never client-cached, so no lease is granted
type JoinResponse struct {
	ServerID    int     `json:"serverId"`
	GLVersion   int64   `json:"glVersion"`
	GlobalLayer []Entry `json:"globalLayer"`
	// Trees are the local-layer subtrees the server is to own, each whole.
	Trees    []Subtree         `json:"trees"`
	Index    map[string]string `json:"index"` // subtree root path → MDS addr
	IndexVer int64             `json:"indexVer"`
	// AdoptedSubtrees echoes the recovery claims the Monitor accepted; the
	// server keeps its recovered entries for these roots and drops any
	// claimed root not listed here (another live server owns it).
	AdoptedSubtrees []string `json:"adoptedSubtrees,omitempty"`
}

func (m *JoinResponse) code(c *codec) {
	c.integer(&m.ServerID)
	c.i64(&m.GLVersion)
	c.entries(&m.GlobalLayer)
	c.subtrees(&m.Trees)
	c.index(&m.Index)
	c.i64(&m.IndexVer)
	c.strs(&m.AdoptedSubtrees)
}

// HeartbeatRequest reports an MDS's load to the Monitor (Sec. IV-B).
type HeartbeatRequest struct {
	ServerID  int     `json:"serverId"`
	Addr      string  `json:"addr"`
	Load      float64 `json:"load"`      // current load level L_k
	Ops       int64   `json:"ops"`       // cumulative ops served
	Entries   int     `json:"entries"`   // resident metadata records
	GLVersion int64   `json:"glVersion"` // for staleness detection
	IndexVer  int64   `json:"indexVer"`
	// HotPaths reports the server's most-accessed paths since the last
	// heartbeat (access counters, Sec. IV-B); the Monitor folds them into
	// its popularity view to drive global-layer re-evaluation.
	HotPaths map[string]int64 `json:"hotPaths,omitempty"`
	// CreatedPaths reports local-layer entries created since the last
	// successful heartbeat, so the Monitor's authoritative namespace copy
	// converges and a failover push re-materializes them. Merged back and
	// re-shipped when a heartbeat fails, like HotPaths.
	CreatedPaths []Entry `json:"createdPaths,omitempty"`
}

func (m *HeartbeatRequest) code(c *codec) {
	c.integer(&m.ServerID)
	c.str(&m.Addr)
	c.f64(&m.Load)
	c.i64(&m.Ops)
	c.integer(&m.Entries)
	c.i64(&m.GLVersion)
	c.i64(&m.IndexVer)
	c.counts(&m.HotPaths)
	c.entries(&m.CreatedPaths)
}

// TransferCommand tells an MDS to ship one subtree to another MDS.
type TransferCommand struct {
	RootPath string `json:"rootPath"`
	DestAddr string `json:"destAddr"`
	// ReqID is the migration's trace identifier, minted by the Monitor when
	// the move is first planned and kept across NACK → re-issue cycles, so
	// one grep reconstructs the subtree's whole migration history.
	ReqID string `json:"reqId,omitempty"`
}

func (m *TransferCommand) code(c *codec) {
	c.str(&m.RootPath)
	c.str(&m.DestAddr)
	c.str(&m.ReqID)
}

// HeartbeatResponse acknowledges a heartbeat, piggybacking the current
// versions, any global-layer refresh, and pending transfer commands.
//
//d2vet:ignore leasecheck control-plane payload between Monitor and MDS; the GL refresh replaces server state and is never client-cached, so no lease is granted
type HeartbeatResponse struct {
	GLVersion   int64             `json:"glVersion"`
	GlobalLayer []Entry           `json:"globalLayer,omitempty"` // full refresh when stale
	IndexVer    int64             `json:"indexVer"`
	Index       map[string]string `json:"index,omitempty"`
	Transfers   []TransferCommand `json:"transfers,omitempty"`
	// JournalDegraded reports that the Monitor's WAL has failed and its
	// recovery story is running memory-only (availability over durability).
	JournalDegraded bool `json:"journalDegraded,omitempty"`
}

func (m *HeartbeatResponse) code(c *codec) {
	c.i64(&m.GLVersion)
	c.entries(&m.GlobalLayer)
	c.i64(&m.IndexVer)
	c.index(&m.Index)
	m.Transfers = sized(c, m.Transfers, c.count(len(m.Transfers), transferMin))
	for i := range m.Transfers {
		m.Transfers[i].code(c)
	}
	c.flag(&m.JournalDegraded)
}

// GLUpdateRequest asks the Monitor to apply a serialised update to a
// global-layer entry (create or setattr).
type GLUpdateRequest struct {
	ServerID int    `json:"serverId"`
	Op       string `json:"op"` // "create" or "setattr"
	Entry    Entry  `json:"entry"`
}

func (m *GLUpdateRequest) code(c *codec) {
	c.integer(&m.ServerID)
	c.str(&m.Op)
	m.Entry.code(c)
}

// GLUpdateResponse returns the committed entry and new GL version.
type GLUpdateResponse struct {
	Entry     Entry `json:"entry"`
	GLVersion int64 `json:"glVersion"`
}

func (m *GLUpdateResponse) code(c *codec) {
	m.Entry.code(c)
	c.i64(&m.GLVersion)
}

// ClusterInfoResponse is what clients bootstrap from.
type ClusterInfoResponse struct {
	Servers  []string          `json:"servers"` // MDS addresses, index = ServerID
	Index    map[string]string `json:"index"`
	IndexVer int64             `json:"indexVer"`
}

func (m *ClusterInfoResponse) code(c *codec) {
	c.strs(&m.Servers)
	c.index(&m.Index)
	c.i64(&m.IndexVer)
}

// InstallRequest ships a subtree to the MDS that is to own it, during a
// migration or a failover push.
// The receiver takes ownership of the subtree at Tree.Path.
type InstallRequest struct {
	Tree Subtree `json:"tree"`
}

func (m *InstallRequest) code(c *codec) { m.Tree.code(c) }

// UninstallRequest tells an MDS to drop a subtree it may hold from a
// superseded recovery push (install timed out at the Monitor but landed);
// the reply is a LockResponse ack. Idempotent: an absent root acks cleanly.
type UninstallRequest struct {
	RootPath string `json:"rootPath"`
}

func (m *UninstallRequest) code(c *codec) { c.str(&m.RootPath) }

// TransferDoneRequest tells the Monitor a subtree migration completed so it
// can commit the new ownership into the local index.
type TransferDoneRequest struct {
	ServerID int    `json:"serverId"`
	RootPath string `json:"rootPath"`
	DestAddr string `json:"destAddr"`
	// ReqID echoes the TransferCommand's migration trace identifier.
	ReqID string `json:"reqId,omitempty"`
}

func (m *TransferDoneRequest) code(c *codec) {
	c.integer(&m.ServerID)
	c.str(&m.RootPath)
	c.str(&m.DestAddr)
	c.str(&m.ReqID)
}

// TransferFailedRequest NACKs a transfer command the source could not
// execute, so the Monitor releases the subtree's in-flight marker and the
// next adjustment round can reschedule it (possibly to another server).
type TransferFailedRequest struct {
	ServerID int    `json:"serverId"`
	RootPath string `json:"rootPath"`
	DestAddr string `json:"destAddr"`
	Reason   string `json:"reason,omitempty"`
	// ReqID echoes the TransferCommand's migration trace identifier.
	ReqID string `json:"reqId,omitempty"`
}

func (m *TransferFailedRequest) code(c *codec) {
	c.integer(&m.ServerID)
	c.str(&m.RootPath)
	c.str(&m.DestAddr)
	c.str(&m.Reason)
	c.str(&m.ReqID)
}

// ObsEvent is one structured observability event: a client/MDS op, a
// migration lifecycle stage, or a cluster membership change. Events are
// recorded into fixed rings (internal/obs) and shipped as JSONL or over
// TypeObsDump; a shared ReqID threads one operation or migration across
// every node it touched.
type ObsEvent struct {
	// Seq is the recorder-local sequence number (1-based, dense).
	Seq uint64 `json:"seq"`
	// TS is the recording wall-clock time in Unix nanoseconds.
	TS int64 `json:"ts"`
	// Node identifies the recorder ("client-3", "mds-0", "monitor").
	Node string `json:"node"`
	// Kind classifies the event: "op", "migration", "cluster" or "obs".
	Kind string `json:"kind"`
	// Op is the wire op type or lifecycle stage ("lookup", "plan", "issue",
	// "install", "transfer_done", …).
	Op string `json:"op,omitempty"`
	// ReqID is the end-to-end trace identifier (see Envelope.ReqID).
	ReqID string `json:"reqId,omitempty"`
	// From is the sending hop's span for received frames (Envelope.Span).
	From string `json:"from,omitempty"`
	// Path is the namespace path the event concerns, when it has one.
	Path string `json:"path,omitempty"`
	// Detail carries event-specific context (destination address, counts).
	Detail string `json:"detail,omitempty"`
	// DurUS is the operation's duration in microseconds (0 when not timed).
	DurUS int64 `json:"durUs,omitempty"`
	// Err is the failure message for failed operations.
	Err string `json:"err,omitempty"`
}

func (m *ObsEvent) code(c *codec) {
	c.u64(&m.Seq)
	c.i64(&m.TS)
	c.str(&m.Node)
	c.str(&m.Kind)
	c.str(&m.Op)
	c.str(&m.ReqID)
	c.str(&m.From)
	c.str(&m.Path)
	c.str(&m.Detail)
	c.i64(&m.DurUS)
	c.str(&m.Err)
}

// ObsDumpRequest asks a node for its buffered events and op histograms.
type ObsDumpRequest struct {
	// SinceSeq returns only events with Seq > SinceSeq (0 = all buffered).
	SinceSeq uint64 `json:"sinceSeq,omitempty"`
}

func (m *ObsDumpRequest) code(c *codec) { c.u64(&m.SinceSeq) }

// ObsDumpResponse carries one node's observability state.
type ObsDumpResponse struct {
	// Node is the responder's recorder identity.
	Node string `json:"node"`
	// Seq is the last sequence number assigned (resume cursor for polling).
	Seq uint64 `json:"seq"`
	// Dropped counts events in (SinceSeq, oldest buffered) that the ring
	// overwrote before this dump.
	Dropped uint64 `json:"dropped"`
	// Events are the buffered events newer than SinceSeq, oldest first.
	Events []ObsEvent `json:"events,omitempty"`
	// Ops summarises server-side latency per wire op type.
	Ops map[string]LatencySummary `json:"ops,omitempty"`
}

func (m *ObsDumpResponse) code(c *codec) {
	c.str(&m.Node)
	c.u64(&m.Seq)
	c.u64(&m.Dropped)
	m.Events = sized(c, m.Events, c.count(len(m.Events), eventMin))
	for i := range m.Events {
		m.Events[i].code(c)
	}
	c.latencies(&m.Ops)
}

// LockResponse is the bare acknowledgement the install, uninstall and
// transfer-outcome handlers return.
type LockResponse struct {
	Granted bool `json:"granted"`
}

func (m *LockResponse) code(c *codec) { c.flag(&m.Granted) }
