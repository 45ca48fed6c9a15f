// Package loadgen drives a *live* D2-Tree cluster with a synthetic trace —
// the in-repo counterpart of the paper's 200-client EC2 experiment. A fixed
// population of closed-loop clients replays metadata operations through the
// client library (cached-index routing, redirects, GL updates through the
// Monitor) while per-operation latencies and error counts are recorded.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"d2tree/internal/cache"
	"d2tree/internal/client"
	"d2tree/internal/namespace"
	"d2tree/internal/stats"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// Config parameterises one load run.
type Config struct {
	// MonitorAddr locates the cluster.
	MonitorAddr string
	// Clients is the closed-loop client population (the paper fixes 200).
	Clients int
	// InFlight is each client's pipeline depth: how many operations one
	// client keeps outstanding at once over its (shared, multiplexed)
	// connections. 1 — the default — is the paper's closed loop: issue,
	// wait, issue. Deeper pipelines measure how far the serving path
	// scales when the network round trip is no longer the limiter.
	InFlight int
	// Tree resolves event node IDs to paths.
	Tree *namespace.Tree
	// Events is the operation stream, split round-robin across clients.
	Events []trace.Event
	// Timeout bounds the whole run (0 = no bound).
	Timeout time.Duration
	// Seed diversifies per-client randomness.
	Seed int64
	// CacheEntries enables each client's lease entry cache (Sec. IV-A2);
	// zero disables it.
	CacheEntries int
	// CacheLease is the entry lease when the cache is enabled.
	CacheLease time.Duration
	// PrivateConns gives every client its own sockets instead of the
	// default shared per-process transport. The default matches how a real
	// client host multiplexes its tenants over one connection per MDS (and
	// batches their frames into shared writes); set PrivateConns to model
	// each client as a fully independent host.
	PrivateConns bool
	// Batch groups this many consecutive operations of each lane into one
	// compound frame via Client.Batch: one envelope, one result per
	// sub-op. 0 or 1 replays the trace as single-op RPCs. Throughput
	// still counts sub-ops, so rows compare directly across batch sizes.
	Batch int
	// Readdir selects a listing-heavy mix instead of the trace's
	// lookup/setattr classification: every event lists the parent
	// directory of its path. "plain" issues Readdir then one Lookup per
	// returned child (the N+1 pattern readdirplus exists to kill);
	// "plus" issues a single ReaddirPlus. Either way one listing event
	// counts as one operation, so throughput rows compare across modes.
	// "" disables the mix.
	Readdir string
}

// Validate reports whether the config is runnable.
func (c Config) Validate() error {
	switch {
	case c.MonitorAddr == "":
		return errors.New("loadgen: missing monitor address")
	case c.Clients < 1:
		return fmt.Errorf("loadgen: Clients = %d, need >= 1", c.Clients)
	case c.InFlight < 0:
		return fmt.Errorf("loadgen: InFlight = %d, need >= 0 (0 means 1)", c.InFlight)
	case c.Tree == nil:
		return errors.New("loadgen: nil namespace tree")
	case len(c.Events) == 0:
		return errors.New("loadgen: empty event stream")
	case c.Batch < 0:
		return fmt.Errorf("loadgen: Batch = %d, need >= 0 (0 means 1)", c.Batch)
	case c.Readdir != "" && c.Readdir != "plain" && c.Readdir != "plus":
		return fmt.Errorf("loadgen: Readdir = %q, need \"\", \"plain\" or \"plus\"", c.Readdir)
	case c.Readdir != "" && c.Batch > 1:
		return errors.New("loadgen: Readdir mix and Batch > 1 are mutually exclusive")
	}
	return nil
}

// Report is the outcome of a load run.
type Report struct {
	Ops           uint64        `json:"ops"`
	Errors        uint64        `json:"errors"`
	Elapsed       time.Duration `json:"elapsed"`
	ThroughputOps float64       `json:"throughputOps"`
	Latency       stats.Summary `json:"latency"`
	// Queries/Updates split latency by the paper's op classification.
	Queries stats.Summary `json:"queries"`
	Updates stats.Summary `json:"updates"`
	// Cache aggregates the per-client entry-cache counters across the
	// population (all zero when the cache is disabled).
	Cache CacheStats `json:"cache"`
	// ErrorSample holds one representative error message when Errors > 0.
	ErrorSample string `json:"errorSample,omitempty"`
}

// CacheStats sums client entry-cache counters over the population. HitRatio
// is hits/(hits+misses): the fraction of decided cache probes served from
// local memory (renewed leases count as hits — the body never refetched).
type CacheStats struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Expired       uint64  `json:"expired"`
	Renewed       uint64  `json:"renewed"`
	Invalidations uint64  `json:"invalidations"`
	HitRatio      float64 `json:"hitRatio"`
}

// Run replays the configured trace against the cluster and reports
// aggregate throughput and latency.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}

	// Resolve paths once; workers share the read-only slice.
	paths := make([]string, len(cfg.Events))
	for i, ev := range cfg.Events {
		n := cfg.Tree.Node(ev.Node)
		if n == nil {
			return nil, fmt.Errorf("loadgen: event %d references unknown node %d", i, ev.Node)
		}
		paths[i] = cfg.Tree.Path(n)
	}

	inFlight := cfg.InFlight
	if inFlight < 1 {
		inFlight = 1
	}
	// One result slot per pipeline lane so lanes never share histograms or
	// counters; lane k of client w owns results[w*inFlight+k].
	results := make([]workerResult, cfg.Clients*inFlight)
	clientErrs := make([]error, cfg.Clients)
	clientCaches := make([]cache.Counters, cfg.Clients)
	// All clients share one multiplexed connection per MDS unless the run
	// models fully independent hosts.
	var shared *client.Transport
	if !cfg.PrivateConns {
		// Timeouts match the client library's defaults.
		shared = client.NewTransport(2*time.Second, 2*time.Second)
		defer func() { _ = shared.Close() }()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Connect(client.Config{
				MonitorAddr:  cfg.MonitorAddr,
				Seed:         cfg.Seed + int64(w) + 1,
				CacheEntries: cfg.CacheEntries,
				CacheLease:   cfg.CacheLease,
				Name:         "client-" + strconv.Itoa(w),
				Transport:    shared,
			})
			if err != nil {
				clientErrs[w] = err
				return
			}
			defer func() { _ = cl.Close() }()
			defer func() { clientCaches[w] = cl.CacheCounters() }()
			// Each lane replays every inFlight-th event of this client's
			// stripe, so the client keeps up to inFlight operations
			// outstanding over its shared connections.
			var lanes sync.WaitGroup
			for k := 0; k < inFlight; k++ {
				lanes.Add(1)
				go func(k int) {
					defer lanes.Done()
					res := &results[w*inFlight+k]
					res.all = &stats.Histogram{}
					res.queries = &stats.Histogram{}
					res.updates = &stats.Histogram{}
					runLane(ctx, cfg, cl, res, paths, w, k, inFlight)
				}(k)
			}
			lanes.Wait()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var (
		all, queries, updates stats.Histogram
		ops, errs             uint64
	)
	for i, err := range clientErrs {
		if err != nil {
			return nil, fmt.Errorf("loadgen: client %d: %w", i, err)
		}
	}
	for i := range results {
		if results[i].all == nil {
			continue
		}
		ops += results[i].ops
		errs += results[i].errs
		all.Merge(results[i].all)
		queries.Merge(results[i].queries)
		updates.Merge(results[i].updates)
	}
	var sample string
	for i := range results {
		if results[i].opErr != nil {
			sample = results[i].opErr.Error()
			break
		}
	}
	var cc CacheStats
	for i := range clientCaches {
		cc.Hits += clientCaches[i].Hits
		cc.Misses += clientCaches[i].Misses
		cc.Expired += clientCaches[i].Expired
		cc.Renewed += clientCaches[i].Renewed
		cc.Invalidations += clientCaches[i].Invalidations
	}
	if n := cc.Hits + cc.Misses; n > 0 {
		cc.HitRatio = float64(cc.Hits) / float64(n)
	}
	rep := &Report{
		ErrorSample: sample,
		Ops:         ops,
		Errors:      errs,
		Elapsed:     elapsed,
		Latency:     all.Summarize(),
		Queries:     queries.Summarize(),
		Updates:     updates.Summarize(),
		Cache:       cc,
	}
	if elapsed > 0 {
		rep.ThroughputOps = float64(ops) / elapsed.Seconds()
	}
	return rep, nil
}

// workerResult is one lane's private accounting; lanes never share slots.
type workerResult struct {
	ops, errs uint64
	all       *stats.Histogram
	queries   *stats.Histogram
	updates   *stats.Histogram
	opErr     error // sample of a failed operation
}

func (r *workerResult) fail(err error) {
	r.errs++
	if r.opErr == nil {
		r.opErr = err
	}
}

func (r *workerResult) record(lat time.Duration, update bool) {
	r.all.Record(lat)
	if update {
		r.updates.Record(lat)
	} else {
		r.queries.Record(lat)
	}
}

// runLane replays one pipeline lane's stripe of the event stream — every
// stride-th event starting at the lane's offset — in the configured mode:
// single-op RPCs, cfg.Batch-sized compound frames, or the listing-heavy
// readdir mix.
func runLane(ctx context.Context, cfg Config, cl *client.Client, res *workerResult, paths []string, w, k, inFlight int) {
	stride := cfg.Clients * inFlight
	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}
	ops := make([]wire.BatchOp, 0, batch)
	isUpdate := make([]bool, 0, batch)
	// flush ships the accumulated sub-ops as one compound frame. Every
	// sub-op records the frame's round trip: that shared latency is what
	// batching buys throughput with.
	flush := func() {
		t0 := time.Now()
		rs, err := cl.Batch(ops)
		lat := time.Since(t0)
		for j := range ops {
			res.ops++
			subErr := err
			if subErr == nil && rs[j].Err != "" {
				subErr = errors.New(rs[j].Err)
			}
			if subErr != nil {
				res.fail(subErr)
				continue
			}
			res.record(lat, isUpdate[j])
		}
		ops, isUpdate = ops[:0], isUpdate[:0]
	}
	for i := w + k*cfg.Clients; i < len(cfg.Events); i += stride {
		select {
		case <-ctx.Done():
			return
		default:
		}
		update := cfg.Events[i].Op == trace.OpUpdate
		switch {
		case cfg.Readdir != "":
			// One event = one listing of the parent directory resolved to
			// full child attributes: either the N+1 round-trip pattern or
			// a single readdirplus frame.
			dir := parentDir(paths[i])
			t0 := time.Now()
			var opErr error
			if cfg.Readdir == "plus" {
				_, opErr = cl.ReaddirPlus(dir)
			} else {
				var names []string
				names, opErr = cl.Readdir(dir)
				for _, name := range names {
					if opErr != nil {
						break
					}
					_, opErr = cl.Lookup(childPath(dir, name))
				}
			}
			lat := time.Since(t0)
			res.ops++
			if opErr != nil {
				res.fail(opErr)
				continue
			}
			res.record(lat, false)
		case batch > 1:
			if update {
				ops = append(ops, wire.BatchOp{Op: wire.BatchSetAttr, Path: paths[i], Size: int64(i), Mode: 0o644})
			} else {
				ops = append(ops, wire.BatchOp{Op: wire.BatchLookup, Path: paths[i]})
			}
			isUpdate = append(isUpdate, update)
			if len(ops) == batch {
				flush()
			}
		default:
			t0 := time.Now()
			var opErr error
			if update {
				_, opErr = cl.SetAttr(paths[i], int64(i), 0o644)
			} else {
				_, opErr = cl.Lookup(paths[i])
			}
			lat := time.Since(t0)
			res.ops++
			if opErr != nil {
				res.fail(opErr)
				continue
			}
			res.record(lat, update)
		}
	}
	if len(ops) > 0 {
		flush()
	}
}

// parentDir is the directory a path's entry lives in ("/" is its own
// parent, matching the tree root).
func parentDir(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

func childPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// Format renders the report for humans.
func (r *Report) Format() string {
	out := fmt.Sprintf(
		"ops=%d errors=%d elapsed=%v throughput=%.0f ops/s\n"+
			"latency: mean=%v p50=%v p90=%v p99=%v max=%v\n"+
			"queries: n=%d p50=%v p99=%v | updates: n=%d p50=%v p99=%v",
		r.Ops, r.Errors, r.Elapsed.Round(time.Millisecond), r.ThroughputOps,
		r.Latency.Mean, r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.Max,
		r.Queries.Count, r.Queries.P50, r.Queries.P99,
		r.Updates.Count, r.Updates.P50, r.Updates.P99)
	if r.Cache.Hits+r.Cache.Misses+r.Cache.Expired > 0 {
		out += fmt.Sprintf(
			"\ncache: hits=%d misses=%d expired=%d renewed=%d invalidations=%d hit_ratio=%.1f%%",
			r.Cache.Hits, r.Cache.Misses, r.Cache.Expired, r.Cache.Renewed,
			r.Cache.Invalidations, 100*r.Cache.HitRatio)
	}
	if r.ErrorSample != "" {
		out += "\nerror sample: " + r.ErrorSample
	}
	return out
}
