// Command tracegen generates synthetic trace files (and the matching binary
// namespace snapshot (v3), which d2monitor -snapshot reads) for one of the
// paper's workload profiles.
//
// Usage:
//
//	tracegen -profile DTR -nodes 20000 -events 200000 -seed 1 \
//	         -out dtr.trace [-tree dtr.ns]
package main

import (
	"flag"
	"fmt"
	"os"

	"d2tree/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		profile = fs.String("profile", "DTR", "trace profile (DTR|LMBE|RA)")
		nodes   = fs.Int("nodes", 20000, "namespace size")
		events  = fs.Int("events", 200000, "number of operations")
		seed    = fs.Int64("seed", 1, "random seed")
		out     = fs.String("out", "", "trace output file (required)")
		treeOut = fs.String("tree", "", "optional binary namespace snapshot (v3) output file, for d2monitor -snapshot")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	p, err := trace.ProfileByName(*profile)
	if err != nil {
		return err
	}
	w, err := trace.BuildWorkload(p.Scale(*nodes), *events, *seed)
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := trace.Write(f, p.Name, w.Events); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d events (%s) to %s\n", len(w.Events), p.Name, *out)

	if *treeOut != "" {
		tf, err := os.Create(*treeOut)
		if err != nil {
			return err
		}
		if err := w.Tree.WriteSnapshot(tf); err != nil {
			_ = tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d-node namespace snapshot to %s\n", w.Tree.Len(), *treeOut)
	}
	mix := trace.CountMix(w.Events)
	fmt.Printf("op mix: read %.2f%% write %.2f%% update %.2f%%\n",
		mix.Read*100, mix.Write*100, mix.Update*100)
	return nil
}
