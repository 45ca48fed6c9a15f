package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares candidate b against baseline a on one metric. worsening is
// the signed change in the metric's bad direction: a share of a's value, or
// the absolute difference for failed_share, whose bound is absolute. spread
// is the larger in-run window spread of the two runs. When that spread is
// wider than the bound and the change sits inside it, the runs cannot
// resolve the bound and the verdict says so instead of "within".
func judge(def metricDef, a, b metricValue) (verdict string, worsening, spread float64) {
	diff := b.Value - a.Value
	if def.Better == "higher" {
		diff = -diff
	}
	switch {
	case def.Name == failedShare.Name:
		worsening = diff
	case a.Value != 0:
		worsening = diff / math.Abs(a.Value)
	case diff != 0:
		worsening = math.Inf(int(math.Copysign(1, diff)))
	}
	for _, m := range []metricValue{a, b} {
		if m.Spread != nil {
			spread = max(spread, *m.Spread)
		}
	}
	switch {
	case spread > def.Bound && math.Abs(worsening) <= spread:
		return verdictUnresolved, worsening, spread
	case worsening > def.Bound:
		return verdictWorse, worsening, spread
	case worsening < -def.Bound:
		return verdictBetter, worsening, spread
	}
	return verdictWithin, worsening, spread
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Either one full set, or bench/results/baseline.json's {"sets": [...]},
	// of which the first set stands for the baseline.
	var doc struct {
		document
		Sets []document `json:"sets"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Sets) > 0 {
		doc.document = doc.Sets[0]
	}
	if doc.Benchmark != "d2perf" || len(doc.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a d2perf full-set document", path)
	}
	return &doc.document, nil
}

var errWorse = errors.New("at least one metric is worse than its bound allows")

// compareFiles prints one row per (workload, end-to-end metric) of B against
// A, and fails when any row is worse or a workload cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("run lengths differ: %d s against %d s", a.Seconds, b.Seconds)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworsening\tbound\tin-run spread\tverdict")
	failed := false
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil || len(wa.Invalid) > 0 || len(wb.Invalid) > 0 {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\t\tmissing or invalid\n", wl.Name)
			failed = true
			continue
		}
		for _, def := range comparedMetrics() {
			ma, mb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			verdict, worsening, spread := judge(def, ma, mb)
			failed = failed || verdict == verdictWorse
			change, bound := fmt.Sprintf("%+.1f%%", 100*worsening), fmt.Sprintf("%.0f%%", 100*def.Bound)
			if def.Name == failedShare.Name {
				change, bound = fmt.Sprintf("%+.4f", worsening), fmt.Sprintf("%.3f", def.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%s\t%.1f%%\t%s\n",
				wl.Name, def.Name, ma.Value, mb.Value, change, bound, 100*spread, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failed {
		return errWorse
	}
	return nil
}
