package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"d2tree/internal/client"
	"d2tree/internal/trace"
)

// Operation names, shared by samples and spans.
const (
	opLookup      = "lookup"
	opSetAttr     = "setattr"
	opReaddirPlus = "readdirplus"
)

// stream is the generated input the lanes cycle over: one path per trace
// event, whether the event is an update, and the parent to list instead.
type stream struct {
	paths   []string
	parents []string
	update  []bool
}

func newStream(w *trace.Workload) *stream {
	s := &stream{
		paths:   make([]string, len(w.Events)),
		parents: make([]string, len(w.Events)),
		update:  make([]bool, len(w.Events)),
	}
	for i, ev := range w.Events {
		p := w.Tree.Path(w.Tree.Node(ev.Node))
		s.paths[i] = p
		s.parents[i] = parentDir(p)
		s.update[i] = ev.Op == trace.OpUpdate
	}
	return s
}

func parentDir(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// sample is one completed operation: when it ended (since the run began) and
// how long the caller waited. Exact samples, not histogram buckets.
type sample struct {
	end    time.Duration
	lat    time.Duration
	failed bool
}

// span is one traced client call, held in memory until the run ends.
type span struct {
	op         string
	start, end time.Duration
	failed     bool
}

// lane is one closed-loop caller's private record; lanes share nothing.
type lane struct {
	samples []sample
	spans   []span
	acked   map[string]int64 // highest setattr version acked, per path
	errs    []error          // first few failures, for the report
}

// loadPlan fixes one run's timing. When traced, odd windows record a span
// around every call and even windows do not, so one run yields both rates.
type loadPlan struct {
	warmup, window time.Duration
	windows        int
	traced         bool
}

func (p loadPlan) total() time.Duration {
	return p.warmup + time.Duration(p.windows)*p.window
}

// windowOf maps a time since the run began to its measured window, or -1.
func (p loadPlan) windowOf(t time.Duration) int {
	if t < p.warmup {
		return -1
	}
	w := int((t - p.warmup) / p.window)
	if w >= p.windows {
		return -1
	}
	return w
}

// drive runs the closed loop: wl.Clients callers, each with its own client
// over the shared transport, each blocking on every reply, cycling its
// stripe of the stream until the deadline. It returns the lanes' records and
// the instant their clocks count from. snap, when non-nil, is handed the
// lanes' clients at the end of warm-up and again once every lane stopped.
func drive(ctx context.Context, monAddr string, wl workload, st *stream, seed int64, plan loadPlan,
	snap func(clients []*client.Client, end bool)) ([]*lane, time.Time, error) {
	// Two multiplexed connections in all, one per MDS, matching nproc.
	tr := client.NewTransport(2*time.Second, 2*time.Second)
	defer func() { _ = tr.Close() }()
	clients := make([]*client.Client, wl.Clients)
	for i := range clients {
		cfg := client.Config{
			MonitorAddr: monAddr,
			Seed:        seed*1000 + int64(i) + 1,
			Name:        fmt.Sprintf("lane-%d", i),
			Transport:   tr,
		}
		if wl.Cache {
			cfg.CacheEntries = cacheEntries
			cfg.CacheLease = entryLease
		}
		cl, err := client.Connect(cfg)
		if err != nil {
			return nil, time.Time{}, fmt.Errorf("lane %d connect: %w", i, err)
		}
		defer func() { _ = cl.Close() }()
		clients[i] = cl
	}
	lanes := make([]*lane, wl.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range lanes {
		lanes[i] = &lane{
			// Room for a whole run at the rates seen so far: a lane that
			// stops to copy its samples into a larger slice, and the garbage
			// that leaves, showed in p99. Untouched room stays unmapped.
			samples: make([]sample, 0, laneSampleRoom),
			acked:   make(map[string]int64),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runLane(ctx, lanes[i], clients[i], wl, st, i, start, plan)
		}(i)
	}
	if snap != nil {
		time.Sleep(time.Until(start.Add(plan.warmup)))
		snap(clients, false)
	}
	wg.Wait()
	if snap != nil {
		snap(clients, true)
	}
	return lanes, start, nil
}

func runLane(ctx context.Context, ln *lane, cl *client.Client, wl workload, st *stream, id int, start time.Time, plan loadPlan) {
	total := plan.total()
	n := len(st.paths)
	t0 := time.Since(start)
	for i := id; t0 < total && ctx.Err() == nil; i += wl.Clients {
		// Each pass over the stream starts one event later, so a lane does
		// not replay one fixed stripe: cycling a stripe about as large as
		// the client cache puts the LRU on a cliff where the hit ratio, and
		// with it the throughput, swings on a few paths more or less.
		k := (i + i/n) % n
		op := opLookup
		var err error
		switch {
		case wl.Listing && i/wl.Clients%5 != 4:
			op = opReaddirPlus
			_, err = cl.ReaddirPlus(st.parents[k])
		case st.update[k]:
			op = opSetAttr
			e, serr := cl.SetAttr(st.paths[k], int64(i), 0o644)
			if err = serr; err == nil && e.Version > ln.acked[st.paths[k]] {
				ln.acked[st.paths[k]] = e.Version
			}
		default:
			_, err = cl.Lookup(st.paths[k])
		}
		t1 := time.Since(start)
		if err != nil && len(ln.errs) < 3 {
			ln.errs = append(ln.errs, fmt.Errorf("%s %s: %w", op, st.paths[k], err))
		}
		ln.samples = append(ln.samples, sample{end: t1, lat: t1 - t0, failed: err != nil})
		if plan.traced && plan.windowOf(t0)%2 == 1 {
			ln.spans = append(ln.spans, span{op: op, start: t0, end: t1, failed: err != nil})
		}
		t0 = t1
	}
}

// loadResult is the measured interval of one run, warm-up discarded.
type loadResult struct {
	attempted, failed int
	rates             []float64 // ops/s per window
	p50, p99          []float64 // µs per window
	samples           int       // latency samples over all windows
	acked             map[string]int64
	errs              []error
}

// summarize cuts the lanes' samples into the plan's windows. Operations that
// ended during warm-up or after the deadline are outside the measurement.
func summarize(lanes []*lane, plan loadPlan) loadResult {
	res := loadResult{acked: make(map[string]int64)}
	byWindow := make([][]int64, plan.windows)
	for _, ln := range lanes {
		for _, s := range ln.samples {
			w := plan.windowOf(s.end)
			if w < 0 {
				continue
			}
			res.attempted++
			if s.failed {
				res.failed++
				continue
			}
			byWindow[w] = append(byWindow[w], int64(s.lat))
		}
		for p, v := range ln.acked {
			if v > res.acked[p] {
				res.acked[p] = v
			}
		}
		res.errs = append(res.errs, ln.errs...)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for w := range byWindow {
		lat := byWindow[w]
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.samples += len(lat)
		res.rates = append(res.rates, float64(len(lat))/plan.window.Seconds())
		res.p50 = append(res.p50, us(percentile(lat, 50)))
		res.p99 = append(res.p99, us(percentile(lat, 99)))
	}
	return res
}

// everyOther returns the values at even (from=0) or odd (from=1) indexes.
func everyOther(values []float64, from int) []float64 {
	var out []float64
	for i := from; i < len(values); i += 2 {
		out = append(out, values[i])
	}
	return out
}
