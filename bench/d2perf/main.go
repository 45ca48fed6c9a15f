// Command d2perf is the repository's benchmark: it builds cmd/d2monitor and
// cmd/d2mds, boots a fresh cluster of child processes per workload, drives
// it closed-loop from this one process through internal/client, checks what
// the cluster serves, and prints every metric by name and unit.
//
//	d2perf -workload W -seed N -seconds S -trace 0|1   one run, one result line (BENCHMARK.json)
//	d2perf [-seed N] [-seconds S] [-out FILE]          a full set: every workload, untraced then traced
//	d2perf -compare A.json B.json                      verdict per (workload, metric); exit 1 on any worse
//	d2perf -list                                       the workload and metric names, as JSON
//
// See bench/README.md for what each workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	if os.Getenv(echoEnv) != "" {
		if err := echoMain(); err != nil {
			fmt.Fprintln(os.Stderr, "d2perf echo:", err)
			os.Exit(1)
		}
		return
	}
	// One P for the load generator too: with the daemons pinned the same
	// way, the 2 connections and this process stay within nproc = 2.
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "d2perf:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("d2perf", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this one workload and print the driver's result line")
		seed    = fs.Int64("seed", 1, "workload seed: namespace, event stream and sampled checks")
		seconds = fs.Int("seconds", 0, "measured seconds per run (default 20; 3 with -smoke)")
		traced  = fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics")
		list    = fs.Bool("list", false, "print workload and metric names as JSON")
		compare = fs.Bool("compare", false, "compare two full-set documents: -compare A.json B.json")
		smoke   = fs.Bool("smoke", false, "2k-node namespace, 1 s warm-up, short probes")
		out     = fs.String("out", "", "write the full-set document here instead of standard output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *list:
		return writeJSON("", listing())
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two documents")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	sh := fullShape
	if *smoke {
		sh = smokeShape
	}
	if *seconds == 0 {
		*seconds = defaultSeconds
		if *smoke {
			*seconds = 3
		}
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("need -seconds >= 1 and -trace 0 or 1")
	}
	d, err := locate()
	if err != nil {
		return err
	}
	if err := buildDaemons(d.root, d.bin); err != nil {
		return err
	}
	if *name != "" {
		wl, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		res, err := runOne(ctx, d, wl, sh, *seed, *seconds, *traced == 1)
		if err != nil {
			return err
		}
		return printResultLine(res)
	}
	doc, err := fullSet(ctx, d, sh, *seed, *seconds)
	if err != nil {
		return err
	}
	if err := writeJSON(*out, doc); err != nil {
		return err
	}
	if bad := doc.invalid(); len(bad) > 0 {
		return fmt.Errorf("invalid run(s):\n%s", strings.Join(bad, "\n"))
	}
	return nil
}

// writeJSON writes v, indented, to path, or to standard output for "".
func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printResultLine prints the one JSON object the driver reads, last on
// standard output. An invalid run still prints it (correct: false, reasons on
// standard error) and then fails the command.
func printResultLine(res *runResult) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{len(res.Invalid) == 0, res.Attempted, res.Failed, make(map[string]valueUnit)}
	for name, m := range res.Metrics {
		line.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if len(res.Invalid) > 0 {
		return fmt.Errorf("invalid run: %s", strings.Join(res.Invalid, "; "))
	}
	return nil
}

// listing is what -list prints: the names BENCHMARK.json must carry, plus
// failed_share, which rides in the result line's attempted/failed counts.
func listing() map[string]interface{} {
	names := func(defs []metricDef) []map[string]interface{} {
		var out []map[string]interface{}
		for _, m := range defs {
			row := map[string]interface{}{"name": m.Name, "unit": m.Unit, "better": m.Better}
			if m.Bound > 0 {
				row["bound"] = m.Bound
			}
			out = append(out, row)
		}
		return out
	}
	var wls []map[string]string
	for _, w := range workloads {
		wls = append(wls, map[string]string{"name": w.Name, "why": w.Why})
	}
	return map[string]interface{}{
		"workloads":  wls,
		"end_to_end": names(endToEnd),
		"per_layer":  names(perLayer),
		"counted":    names([]metricDef{failedShare}),
	}
}
