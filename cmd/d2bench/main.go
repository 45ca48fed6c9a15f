// Command d2bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	d2bench -exp table1|table2|fig5|fig6|fig7|fig8|fig9|extras|all [-full]
//	        [-format text|csv|json] [-seed N] [-nodes N] [-events N] [-rounds N]
//
// The default configuration is the fast Quick preset; -full switches to the
// paper-scale preset (20k-node namespaces, 200k-op traces, 20 replay
// rounds).
//
// -cpuprofile and -memprofile capture pprof profiles of the run, so perf
// work profiles the exact path a figure regeneration executes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"d2tree/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "d2bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("d2bench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment id: table1|table2|fig5|fig6|fig7|fig8|fig9|extras|all")
		format     = fs.String("format", "text", "output format for figures: text|csv|json")
		full       = fs.Bool("full", false, "use the paper-scale configuration")
		seed       = fs.Int64("seed", 0, "override random seed")
		nodes      = fs.Int("nodes", 0, "override namespace size")
		events     = fs.Int("events", 0, "override trace length")
		rounds     = fs.Int("rounds", 0, "override replay rounds")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "d2bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "d2bench: memprofile:", err)
			}
		}()
	}
	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *nodes != 0 {
		cfg.TreeNodes = *nodes
	}
	if *events != 0 {
		cfg.Events = *events
	}
	if *rounds != 0 {
		cfg.Rounds = *rounds
	}

	runners := map[string]func(experiments.Config, io.Writer) error{
		"table1": runTable1,
		"table2": runTable2,
		"fig5":   runFigure(experiments.Fig5, *format),
		"fig6":   runFigure(experiments.Fig6, *format),
		"fig7":   runFigure(experiments.Fig7, *format),
		"fig8":   runFig8,
		"fig9":   runFigure(experiments.Fig9, *format),
		"extras": runExtras,
	}
	if *exp == "all" {
		for _, id := range []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "extras"} {
			if err := runners[id](cfg, w); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	r, ok := runners[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return r(cfg, w)
}

func runTable1(cfg experiments.Config, w io.Writer) error {
	rows, err := experiments.Table1(cfg)
	if err != nil {
		return err
	}
	return experiments.FormatTable1(w, rows)
}

func runTable2(cfg experiments.Config, w io.Writer) error {
	rows, err := experiments.Table2(cfg)
	if err != nil {
		return err
	}
	return experiments.FormatTable2(w, rows)
}

func runFigure(f func(experiments.Config) (*experiments.Figure, error), format string) func(experiments.Config, io.Writer) error {
	return func(cfg experiments.Config, w io.Writer) error {
		fig, err := f(cfg)
		if err != nil {
			return err
		}
		switch format {
		case "csv":
			return fig.WriteCSV(w)
		case "json":
			return fig.WriteJSON(w)
		case "text", "":
			return fig.Format(w)
		default:
			return fmt.Errorf("unknown format %q", format)
		}
	}
}

func runFig8(cfg experiments.Config, w io.Writer) error {
	pts, err := experiments.Fig8(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig8 — L0 and U0 under different GL proportions (DTR)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "GL Proportion\tL0 (E-8)\tU0 (E5)\tGL Nodes")
	for _, p := range pts {
		fmt.Fprintf(tw, "%g\t%.4f\t%.4f\t%d\n",
			p.GLProportion, p.L0*1e8, float64(p.U0)/1e5, p.GLNodes)
	}
	return tw.Flush()
}

func runExtras(cfg experiments.Config, w io.Writer) error {
	hit, err := experiments.GLHitRates(cfg)
	if err != nil {
		return err
	}
	if err := experiments.FormatGLHitRates(w, hit); err != nil {
		return err
	}
	fmt.Fprintln(w)
	ren, err := experiments.RenameCost(cfg)
	if err != nil {
		return err
	}
	if err := experiments.FormatRenameCost(w, ren); err != nil {
		return err
	}
	fmt.Fprintln(w)
	rep, err := experiments.ReplicaSweep(cfg)
	if err != nil {
		return err
	}
	return experiments.FormatReplicaSweep(w, rep)
}
