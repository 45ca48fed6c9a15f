package main

import "time"

// The benchmark's fixed shape. Every value here is the same on every commit;
// bench/README.md records why each was chosen.
const (
	datasetSeed      = 1      // builds the namespace and the event multiset; -seed orders the events
	namespaceNodes   = 20000  // trace.Profile.Scale
	streamEvents     = 200000 // trace.BuildWorkload event count, cycled until the deadline
	mdsCount         = 2      // d2mds children; one multiplexed connection each
	windowCount      = 6      // the measured interval is cut into this many windows
	warmup           = 5 * time.Second
	setupRepeats     = 5  // cluster boots per run; setup_s is their median
	probePaths       = 64 // paths that must resolve before a booted cluster counts as ready
	checkPaths       = 500
	settleHeartbeats = 3    // waited before reading updates back from every replica
	rungOps          = 2000 // serial calls per rung probe
	ladderBlock      = 25   // back-to-back calls before the lookup rungs take turns
	laneSampleRoom   = 1 << 20
	defaultSeconds   = 20 // BENCHMARK.json run_seconds

	heartbeat     = 100 * time.Millisecond
	hbTimeout     = 10 * time.Second
	entryLease    = 2 * time.Second
	snapshotEvery = 5 * time.Second
	cacheEntries  = 4096
)

// workload is one traffic mix against a fresh cluster.
type workload struct {
	Name    string
	Why     string
	Profile string // trace profile generating the namespace and event stream
	Clients int    // closed-loop callers, InFlight 1 each
	Cache   bool   // 4096-entry client entry cache under the 2 s server lease
	WAL     bool   // d2mds -wal-dir with real fsync and in-window snapshots
	Listing bool   // 80 % ReaddirPlus(parent(path)), 20 % Lookup(path)
}

var workloads = []workload{
	{
		Name:    "lmbe_lookup",
		Why:     "LMBE point lookups, cache and WAL off: wire codec + syscalls + server dispatch set the cost",
		Profile: "LMBE", Clients: 16,
	},
	{
		Name:    "lmbe_cached",
		Why:     "same stream through a 4096-entry leased client cache smaller than the working set: cache + revalidate",
		Profile: "LMBE", Clients: 16, Cache: true,
	},
	{
		Name:    "ra_durable",
		Why:     "RA stream, 16 % setattr beside reads, WAL fsync and snapshots inside the window: wal, write lock, GL path",
		Profile: "RA", Clients: 16, WAL: true,
	},
	{
		Name:    "lmbe_ls",
		Why:     "80 % ReaddirPlus of the parent, 20 % Lookup: the O(store) directory scans in server dominate",
		Profile: "LMBE", Clients: 8, Listing: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric. Bound is the share of the baseline's value by
// which an end-to-end metric may worsen before -compare calls it worse
// (absolute for failed_share); per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd is what a user of the cluster sees, measured with tracing off. Every
// bound is the driver's maximum, 25 %: the widest run-to-run spreads measured
// over ten seeds (9.8 % ops_per_s, 10.6 % p50_us, 9.9 % p99_us; bench/README.md,
// "Steadiness") are above a third of anything smaller.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p99_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// failedShare rides in the result line's attempted/failed counts rather than
// in BENCHMARK.json (it is 0 on every healthy run, and the contract wants
// metrics that are never 0); the full-set document and -compare carry it
// with an absolute bound.
var failedShare = metricDef{"failed_share", "ratio", "lower", 0.001}

// comparedMetrics is what -compare judges: every end-to-end metric and
// failed_share.
func comparedMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), failedShare)
}

// perLayer is the cost ladder and the in-run counters, from the traced pass.
var perLayer = []metricDef{
	{"wire.codec_ns", "ns", "lower", 0},
	{"wire.codec_allocs", "count", "lower", 0},
	{"wire.frame_bytes", "bytes", "lower", 0},
	{"wire.echo_inproc_us", "us", "lower", 0},
	{"wire.echo_us", "us", "lower", 0},
	{"wire.echo16_us", "us", "lower", 0},
	{"server.lookup_us", "us", "lower", 0},
	{"server.setattr_us", "us", "lower", 0},
	{"server.readdirplus_us", "us", "lower", 0},
	{"server.readdirplus_us_per_child", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.snapshots", "count", "higher", 0},
	{"server.rss_mb", "MB", "lower", 0},
	{"server.revalidate_hit_ratio", "ratio", "higher", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.append8_us", "us", "lower", 0},
	{"wal.append64_us", "us", "lower", 0},
	{"wal.appends_per_flush", "ratio", "higher", 0},
	{"cache.get_ns", "ns", "lower", 0},
	{"cache.probe_hit_ratio", "ratio", "higher", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"client.lookup_us", "us", "lower", 0},
	{"client.self_us", "us", "lower", 0},
	{"client.redirects_per_op", "ratio", "lower", 0},
	{"monitor.gl_setattr_us", "us", "lower", 0},
	{"monitor.transfers_per_s", "1/s", "lower", 0},
	{"monitor.gl_bumps", "count", "lower", 0},
	{"monitor.index_bumps", "count", "lower", 0},
	{"monitor.members_dead", "count", "lower", 0},
	{"monitor.gl_stale_replicas", "count", "lower", 0},
	{"client.cpu_us_per_op", "us", "lower", 0},
	{"server.cpu_us_per_op", "us", "lower", 0},
	{"monitor.cpu_us_per_op", "us", "lower", 0},
	{"cpu.runq_wait_ratio", "ratio", "lower", 0},
	{"balance_ratio", "ratio", "lower", 0},
	{"window_drift", "ratio", "higher", 0},
	{"ladder.closure", "ratio", "higher", 0},
	{"budget.loop_us_per_op", "us", "lower", 0},
	{"trace_overhead", "ratio", "lower", 0},
}
