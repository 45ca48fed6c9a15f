package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"d2tree/internal/cache"
	"d2tree/internal/client"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// shape is the part of the benchmark's size that -smoke shrinks.
type shape struct {
	nodes, events int
	warmup        time.Duration
	setupRepeats  int
	rungOps       int
}

var (
	fullShape  = shape{namespaceNodes, streamEvents, warmup, setupRepeats, rungOps}
	smokeShape = shape{2000, 20000, time.Second, 1, 200}
)

// dirs locates the checkout and the benchmark's output directory.
type dirs struct {
	root string // d2tree module root
	out  string // bench/out: binaries, run directories, span files
	bin  string
}

func locate() (dirs, error) {
	root, err := findRoot()
	if err != nil {
		return dirs{}, err
	}
	out := filepath.Join(root, "bench", "out")
	d := dirs{root: root, out: out, bin: filepath.Join(out, "bin")}
	return d, os.MkdirAll(d.bin, 0o755)
}

// metricValue is one reported number. Only value and unit appear in the
// driver's result line; the rest annotate the full-set document.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     *float64  `json:"min,omitempty"`
	Max     *float64  `json:"max,omitempty"`
	Spread  *float64  `json:"spread,omitempty"` // in-run quartile spread ÷ median
	Samples int       `json:"samples,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Invalid   []string // why the run does not count (a failed check included); empty on a valid run
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
}

// counters is one reading of every in-run counter.
type counters struct {
	mon   *wire.MonitorStatsResponse
	mds   []*wire.StatsResponse
	cache cache.Counters // summed over the lanes' clients
	// Scheduler accounting per layer: this process (the client library and
	// the load loop), the d2mds children together, and d2monitor.
	clientCPU, serverCPU, monitorCPU schedTime
}

func readCounters(ctl *client.Client, c *cluster, lanes []*client.Client) (counters, error) {
	var cs counters
	cs.clientCPU = readSched(os.Getpid())
	for _, pid := range c.mdsPid {
		cs.serverCPU = cs.serverCPU.plus(readSched(pid))
	}
	cs.monitorCPU = readSched(c.procs[0].cmd.Process.Pid)
	var err error
	if cs.mon, err = ctl.MonitorStats(); err != nil {
		return cs, fmt.Errorf("monitor stats: %w", err)
	}
	for _, a := range c.mdsAddr {
		st, err := ctl.Stats(a)
		if err != nil {
			return cs, fmt.Errorf("stats %s: %w", a, err)
		}
		cs.mds = append(cs.mds, st)
	}
	for _, cl := range lanes {
		cc := cl.CacheCounters()
		cs.cache.Hits += cc.Hits
		cs.cache.Misses += cc.Misses
	}
	return cs, nil
}

// runOne boots a fresh cluster for wl, drives it for the given time, checks
// the outputs, and — on a traced run — probes the rungs. A returned error
// means the harness could not measure; a run that measured something wrong
// comes back with Invalid reasons.
func runOne(ctx context.Context, d dirs, wl workload, sh shape, seed int64, seconds int, traced bool) (res *runResult, err error) {
	prof, err := trace.ProfileByName(wl.Profile)
	if err != nil {
		return nil, err
	}
	// The namespace and its popularity structure are the dataset, the same
	// on every run; the seed draws the order in which the request stream
	// visits it (and, below, the probe and check samples). A seed-built
	// namespace moves the hot subtrees between the two MDSs and in and out
	// of the client cache, which swings throughput by more than any bound
	// here could resolve (bench/README.md, "Seeds").
	w, err := trace.BuildWorkload(prof.Scale(sh.nodes), sh.events, datasetSeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.Events), func(i, j int) { w.Events[i], w.Events[j] = w.Events[j], w.Events[i] })
	st := newStream(w)

	runDir, err := os.MkdirTemp(d.out, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(runDir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	snapshot := filepath.Join(runDir, "namespace.ndjson")
	if err := writeSnapshot(snapshot, w.Tree); err != nil {
		return nil, err
	}
	probes := make([]string, probePaths)
	for i := range probes {
		probes[i] = st.paths[rng.Intn(len(st.paths))]
	}

	// Set-up is timed over several fresh boots; the last one is kept.
	var c *cluster
	var setups []float64
	for i := 0; i < sh.setupRepeats; i++ {
		if c != nil {
			c.stop()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err = bootCluster(d.bin, filepath.Join(runDir, fmt.Sprintf("cluster-%d", i)), snapshot, wl, probes)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds())
	}
	defer c.stop()

	ctl, err := client.Connect(client.Config{MonitorAddr: c.monAddr, Seed: seed, Name: "d2perf"})
	if err != nil {
		return nil, err
	}
	defer func() { _ = ctl.Close() }()

	plan := loadPlan{
		warmup:  sh.warmup,
		window:  time.Duration(seconds) * time.Second / windowCount,
		windows: windowCount,
		traced:  traced,
	}
	// Counters are read at both ends of the measured interval on a traced
	// run only: the untraced run's lanes are left alone.
	var atWarm, atEnd counters
	var snapErr error
	var snap func(lanes []*client.Client, end bool)
	if traced {
		snap = func(lanes []*client.Client, end bool) {
			cs, err := readCounters(ctl, c, lanes)
			if err != nil && snapErr == nil {
				snapErr = err
			}
			if end {
				atEnd = cs
			} else {
				atWarm = cs
			}
		}
	}
	lanes, start, err := drive(ctx, c.monAddr, wl, st, seed, plan, snap)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: the lanes stopped early
	}
	if snapErr != nil {
		return nil, snapErr
	}
	load := summarize(lanes, plan)

	res = &runResult{Attempted: load.attempted, Failed: load.failed, Metrics: make(map[string]metricValue)}
	for _, e := range load.errs {
		fmt.Fprintln(os.Stderr, "d2perf: failed op:", e)
	}

	// Validity gates, read after the lanes stopped.
	final, err := readCounters(ctl, c, nil)
	if err != nil {
		res.Invalid = append(res.Invalid, err.Error())
	} else {
		if dead := membersDead(final.mon); dead > 0 {
			res.Invalid = append(res.Invalid, fmt.Sprintf("%d member(s) declared dead", dead))
		}
		if final.mon.JournalDegraded {
			res.Invalid = append(res.Invalid, "monitor journal degraded")
		}
		for _, s := range final.mds {
			if s.WalDegraded {
				res.Invalid = append(res.Invalid, s.Server+" walDegraded")
			}
		}
	}
	if load.attempted == 0 {
		res.Invalid = append(res.Invalid, "no operation completed in the measured interval")
	}

	stale, cerr := checkOutputs(ctl, c.mdsAddr, w, wl, load.acked, rng)
	if cerr != nil {
		res.Invalid = append(res.Invalid, "correctness: "+cerr.Error())
	}

	if traced {
		p := &prober{
			ctl: ctl, st: st, ops: sh.rungOps, dir: runDir, start: start,
			values: make(map[string]float64),
		}
		if err := p.run(); err != nil {
			res.Invalid = append(res.Invalid, "rung probe: "+err.Error())
		}
		layerMetrics(p.values, load, atWarm, atEnd, seconds, c.mdsPid)
		p.values["monitor.gl_stale_replicas"] = float64(stale)
		for _, def := range perLayer {
			res.Metrics[def.Name] = metricValue{Value: p.values[def.Name], Unit: def.Unit}
		}
		if err := writeSpans(filepath.Join(d.out, "spans-"+wl.Name+".jsonl"), wl.Name, lanes, p.spans); err != nil {
			return nil, err
		}
	} else {
		series := map[string][]float64{
			"ops_per_s": load.rates, "p50_us": load.p50, "p99_us": load.p99, "setup_s": setups,
		}
		for _, def := range endToEnd {
			m := windowed(series[def.Name], def.Unit)
			if def.Name != "setup_s" {
				m.Samples = load.samples
			}
			res.Metrics[def.Name] = m
		}
		fmt.Fprintf(os.Stderr, "d2perf: %s windows: ops/s %.0f p50_us %.1f p99_us %.0f setup_s %.3f\n",
			wl.Name, load.rates, load.p50, load.p99, setups)
	}

	// Last, so a daemon that died during the checks or probes is seen too.
	if names := c.exitedEarly(); len(names) > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("child exited early: %v\n%s", names, c.logs()))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// windowed reports the median of the per-window (or per-boot) values, with
// the values themselves and their spread beside it. One window that a
// migration or a snapshot disturbed does not move the median.
func windowed(values []float64, unit string) metricValue {
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = min(lo, v), max(hi, v)
	}
	spread := quartileSpread(values)
	return metricValue{
		Value: median(values), Unit: unit, Min: &lo, Max: &hi, Spread: &spread, Windows: values,
	}
}

func membersDead(mon *wire.MonitorStatsResponse) int {
	dead := mdsCount - len(mon.Members) // a member that never joined counts too
	for _, m := range mon.Members {
		if !m.Alive {
			dead++
		}
	}
	return dead
}

// layerMetrics fills the counter-derived per-layer values: deltas over the
// measured interval, between the reading at the end of warm-up and the one
// after the last lane stopped.
func layerMetrics(v map[string]float64, load loadResult, warm, end counters, seconds int, mdsPid []int) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var snapshots, redirects, revHit, revMiss, appends, flushes, maxOps, sumOps float64
	for i := range end.mds {
		a, b := warm.mds[i], end.mds[i]
		snapshots += float64(b.Snapshots - a.Snapshots)
		redirects += float64(b.Redirects - a.Redirects)
		revHit += float64(b.RevalidateHits - a.RevalidateHits)
		revMiss += float64(b.RevalidateMisses - a.RevalidateMisses)
		appends += float64(b.WalAppends - a.WalAppends)
		flushes += float64(b.WalFlushes - a.WalFlushes)
		ops := float64(b.Ops - a.Ops)
		maxOps, sumOps = max(maxOps, ops), sumOps+ops
	}
	v["server.snapshots"] = snapshots
	v["server.rss_mb"] = rssMB(mdsPid)
	v["server.revalidate_hit_ratio"] = ratio(revHit, revHit+revMiss)
	v["wal.appends_per_flush"] = ratio(appends, flushes)
	hits := float64(end.cache.Hits - warm.cache.Hits)
	misses := float64(end.cache.Misses - warm.cache.Misses)
	v["cache.hit_ratio"] = ratio(hits, hits+misses)
	v["client.redirects_per_op"] = ratio(redirects, float64(load.attempted))
	v["monitor.transfers_per_s"] = float64(end.mon.TransfersDone-warm.mon.TransfersDone) / float64(seconds)
	v["monitor.gl_bumps"] = float64(end.mon.GLVersion - warm.mon.GLVersion)
	v["monitor.index_bumps"] = float64(end.mon.IndexVer - warm.mon.IndexVer)
	v["monitor.members_dead"] = float64(membersDead(end.mon))

	// Time busy per layer per completed op, and how long the processes sat
	// runnable but off-CPU: on two cores the four of them contend, and the
	// wait share says how much of a run's noise is the machine's.
	ops := float64(load.attempted)
	client, server, monitor := end.clientCPU.minus(warm.clientCPU), end.serverCPU.minus(warm.serverCPU), end.monitorCPU.minus(warm.monitorCPU)
	v["client.cpu_us_per_op"] = ratio(client.cpu.Seconds()*1e6, ops)
	v["server.cpu_us_per_op"] = ratio(server.cpu.Seconds()*1e6, ops)
	v["monitor.cpu_us_per_op"] = ratio(monitor.cpu.Seconds()*1e6, ops)
	busy := client.plus(server).plus(monitor)
	v["cpu.runq_wait_ratio"] = ratio(busy.wait.Seconds(), busy.cpu.Seconds())
	// Eq. 2 as observed: the busiest MDS's share of the work against the mean.
	v["balance_ratio"] = ratio(maxOps, sumOps/float64(len(end.mds)))

	// Even windows ran untraced, odd windows with a span around every call.
	plain, spanned := everyOther(load.rates, 0), everyOther(load.rates, 1)
	v["window_drift"] = ratio(plain[len(plain)-1], plain[0])
	v["trace_overhead"] = 1 - ratio(median(spanned), median(plain))
	v["budget.loop_us_per_op"] = ratio(1e6, median(plain))
}

// spanLine is one span as written to bench/out/spans-<workload>.jsonl.
type spanLine struct {
	Workload string `json:"workload"`
	Op       string `json:"op"`
	Lane     int    `json:"lane"` // -1 for rung probes
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Failed   bool   `json:"failed,omitempty"`
}

func writeSpans(path, workload string, lanes []*lane, rungs []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	write := func(lane int, spans []span) error {
		for _, s := range spans {
			line := spanLine{workload, s.op, lane, int64(s.start), int64(s.end), s.failed}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
		return nil
	}
	for i, ln := range lanes {
		if err := write(i, ln.spans); err != nil {
			return err
		}
	}
	return write(-1, rungs)
}

// run probes every rung. The first failure stops it: later rungs subtract
// earlier ones.
func (p *prober) run() error {
	for _, probe := range []func() error{
		p.probeWireCodec, p.probeEchoInproc, p.probeServer, p.probeWAL, p.probeCache,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	p.closeLadder()
	return nil
}
