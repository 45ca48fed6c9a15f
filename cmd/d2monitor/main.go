// Command d2monitor runs the cluster Monitor: it loads (or generates) a
// namespace, computes the initial D2-Tree partition, and coordinates MDS
// membership, heartbeats, the pending pool and global-layer updates.
//
// Usage:
//
//	d2monitor -addr :7070 -servers 4 [-snapshot tree.ns]
//	          [-profile LMBE -nodes 20000 -events 100000 -seed 1]
//	          [-debug-addr 127.0.0.1:6070] [-event-log monitor.jsonl]
//
// -snapshot names a binary namespace snapshot (v3), as tracegen -tree writes
// it; without one the namespace is synthesized from -profile and -nodes.
//
// -wal journals the global layer, the subtree owners and the paths servers
// report created to a write-ahead log, compacted every 5s behind an image of
// that state in the file named by -wal plus ".img", beside the log. A restart
// with the same -wal recovers from the image and the log past it, not by
// replaying every record over the boot layer.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"d2tree/internal/monitor"
	"d2tree/internal/namespace"
	"d2tree/internal/obs"
	"d2tree/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "d2monitor:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("d2monitor", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7070", "listen address")
		servers    = fs.Int("servers", 3, "expected MDS cluster size")
		glProp     = fs.Float64("gl", 0.01, "global-layer proportion")
		snapshot   = fs.String("snapshot", "", "binary namespace snapshot (v3) file, as tracegen -tree writes it; empty = synthesize")
		profile    = fs.String("profile", "LMBE", "trace profile for synthesis (DTR|LMBE|RA)")
		nodes      = fs.Int("nodes", 20000, "synthetic namespace size")
		events     = fs.Int("events", 100000, "popularity-annotation events for synthesis")
		seed       = fs.Int64("seed", 1, "synthesis seed")
		walPath    = fs.String("wal", "", "write-ahead log path for crash recovery (optional); the log is compacted every 5s in which a record was logged, behind an image in <path>.img, and a restart recovers from the image and the log past it")
		hbTimeout  = fs.Duration("hb-timeout", 3*time.Second, "mark an MDS dead after this heartbeat silence")
		statsEvery = fs.Duration("stats", 0, "print cluster stats at this interval (0 = off)")
		// -events already means "synthesis event count", so the trace sink
		// gets the longer -event-log name.
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof + expvar + /debug/d2/* on this address (empty = off)")
		eventLog  = fs.String("event-log", "", "append the Monitor's trace events as JSONL to a file (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		tree   *namespace.Tree
		err    error
		source = "synthesized namespace"
	)
	start := time.Now()
	if *snapshot != "" {
		f, err := os.Open(*snapshot)
		if err != nil {
			return err
		}
		if st, err := f.Stat(); err == nil {
			source = fmt.Sprintf("snapshot %d bytes", st.Size())
		}
		tree, err = namespace.ReadSnapshot(f)
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
	} else {
		p, perr := trace.ProfileByName(*profile)
		if perr != nil {
			return perr
		}
		w, werr := trace.BuildWorkload(p.Scale(*nodes), *events, *seed)
		if werr != nil {
			return werr
		}
		tree = w.Tree
	}
	read := time.Since(start)

	mon, err := monitor.New(tree, monitor.Config{
		Addr:             *addr,
		Servers:          *servers,
		GLProportion:     *glProp,
		WALPath:          *walPath,
		HeartbeatTimeout: *hbTimeout,
	})
	if err != nil {
		return err
	}
	// The boot phases, for attributing start-up time from -event-log or
	// obs_dump: the namespace read (or synthesis), then the initial split
	// and any journal replay.
	split := time.Since(start) - read
	mon.Obs().Record(obs.Event{
		Kind: obs.KindCluster,
		Op:   "boot",
		Detail: fmt.Sprintf("%s, %d nodes, read %.1f ms, split %.1f ms", source, tree.Len(),
			float64(read.Microseconds())/1000, float64(split.Microseconds())/1000),
		DurUS: (read + split).Microseconds(),
	})
	if err := mon.Start(); err != nil {
		return err
	}
	fmt.Printf("d2monitor listening on %s (namespace: %d nodes, servers: %d)\n",
		mon.Addr(), tree.Len(), *servers)

	if *eventLog != "" {
		f, err := os.OpenFile(*eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			_ = mon.Close()
			return err
		}
		fl := obs.NewFlusher(mon.Obs(), f, time.Second)
		defer func() {
			_ = fl.Close()
			_ = f.Close()
		}()
	}
	if *debugAddr != "" {
		ln, err := obs.ServeDebug(*debugAddr, mon.Obs(),
			func() interface{} { return mon.OpLatencies() })
		if err != nil {
			_ = mon.Close()
			return err
		}
		defer func() { _ = ln.Close() }()
		fmt.Printf("d2monitor: debug endpoints on http://%s/debug/\n", ln.Addr())
	}

	stopStats := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			ticker := time.NewTicker(*statsEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stopStats:
					return
				case <-ticker.C:
					st := mon.Stats()
					fmt.Printf("d2monitor: hb=%d transfers planned=%d done=%d failed=%d reissued=%d glv=%d indexv=%d members:",
						st.Heartbeats, st.TransfersPlanned, st.TransfersDone,
						st.TransfersFailed, st.TransfersReissued, st.GLVersion, st.IndexVer)
					for _, mem := range st.Members {
						state := "up"
						if !mem.Alive {
							state = "down"
						}
						fmt.Printf(" [%d %s %s load=%.0f]", mem.ID, mem.Addr, state, mem.Load)
					}
					fmt.Println()
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopStats)
	fmt.Println("d2monitor: shutting down")
	return mon.Close()
}
