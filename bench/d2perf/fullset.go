package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"
)

// document is a full set: every workload, measured untraced for the
// end-to-end metrics and again traced for the per-layer ones. It is what
// -compare reads and what bench/results/baseline.json holds.
type document struct {
	Benchmark string                  `json:"benchmark"`
	Seed      int64                   `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Go        string                  `json:"go"`
	NumCPU    int                     `json:"num_cpu"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Invalid   []string               `json:"invalid,omitempty"` // reasons; absent on a valid pair of runs
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// invalid lists every reason any workload's runs do not count.
func (d *document) invalid() []string {
	var out []string
	for _, w := range workloads {
		if wd := d.Workloads[w.Name]; wd != nil {
			for _, reason := range wd.Invalid {
				out = append(out, w.Name+": "+reason)
			}
		}
	}
	return out
}

func fullSet(ctx context.Context, d dirs, sh shape, seed int64, seconds int) (*document, error) {
	doc := &document{
		Benchmark: "d2perf", Seed: seed, Seconds: seconds,
		Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		Workloads: make(map[string]*workloadDoc),
	}
	for _, wl := range workloads {
		fmt.Fprintf(os.Stderr, "d2perf: %s, tracing off\n", wl.Name)
		plain, err := runOne(ctx, d, wl, sh, seed, seconds, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		fmt.Fprintf(os.Stderr, "d2perf: %s, traced\n", wl.Name)
		traced, err := runOne(ctx, d, wl, sh, seed, seconds, true)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", wl.Name, err)
		}
		wd := &workloadDoc{
			Invalid:   append(plain.Invalid, traced.Invalid...),
			Attempted: plain.Attempted,
			Failed:    plain.Failed,
			EndToEnd:  plain.Metrics,
			PerLayer:  traced.Metrics,
		}
		share := 0.0
		if plain.Attempted > 0 {
			share = float64(plain.Failed) / float64(plain.Attempted)
		}
		wd.EndToEnd[failedShare.Name] = metricValue{Value: share, Unit: failedShare.Unit}
		doc.Workloads[wl.Name] = wd
	}
	printBudget(doc)
	return doc, nil
}

// printBudget renders the µs-per-op budget table from lmbe_lookup's traced
// run: each rung's serial cost, the self time it adds over the rung below,
// and beside them what one op costs the closed loop.
func printBudget(doc *document) {
	wd := doc.Workloads["lmbe_lookup"]
	if wd == nil {
		return
	}
	v := func(name string) float64 { return wd.PerLayer[name].Value }
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "rung\tserial us/op\tself us\t")
	fmt.Fprintf(tw, "wire codec (encode+decode, both frames)\t%.2f\t\t\n", v("wire.codec_ns")/1e3)
	fmt.Fprintf(tw, "wire echo, server in this process\t%.2f\t\t\n", v("wire.echo_inproc_us"))
	fmt.Fprintf(tw, "wire echo, server a child process\t%.2f\t%.2f\t\n", v("wire.echo_us"), v("wire.echo_us"))
	fmt.Fprintf(tw, "server lookup (raw conn to d2mds)\t%.2f\t%.2f\t\n", v("server.lookup_us"), v("server.self_us"))
	fmt.Fprintf(tw, "client lookup (Client.Lookup)\t%.2f\t%.2f\t\n", v("client.lookup_us"), v("client.self_us"))
	fmt.Fprintf(tw, "ladder closure (selves + echo) / client\t%.3f\t\t\n", v("ladder.closure"))
	fmt.Fprintf(tw, "closed loop, 16 callers: 1e6 / ops_per_s\t%.2f\t\t\n", v("budget.loop_us_per_op"))
	fmt.Fprintf(tw, "  CPU per op: this process (client library)\t%.2f\t\t\n", v("client.cpu_us_per_op"))
	fmt.Fprintf(tw, "  CPU per op: both d2mds\t%.2f\t\t\n", v("server.cpu_us_per_op"))
	fmt.Fprintf(tw, "  CPU per op: d2monitor\t%.2f\t\t\n", v("monitor.cpu_us_per_op"))
	_ = tw.Flush() // standard error; nothing to do about a failure
}
