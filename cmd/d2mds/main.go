// Command d2mds runs one metadata server: it joins the cluster through the
// Monitor, receives its global-layer replica and local-layer subtrees, and
// serves metadata operations.
//
// Usage:
//
//	d2mds -addr :7081 -monitor 127.0.0.1:7070
//	d2mds -addr :7081 -monitor 127.0.0.1:7070 -debug-addr 127.0.0.1:6081 -event-log mds.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"d2tree/internal/obs"
	"d2tree/internal/server"
	"d2tree/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "d2mds:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("d2mds", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:0", "listen address")
		mon       = fs.String("monitor", "127.0.0.1:7070", "monitor address")
		heartbeat = fs.Duration("heartbeat", 500*time.Millisecond, "heartbeat interval")
		dialTO    = fs.Duration("dial-timeout", 2*time.Second, "connection establishment deadline")
		callTO    = fs.Duration("call-timeout", 2*time.Second, "per-RPC deadline")
		lease     = fs.Duration("lease", 2*time.Second, "entry lease granted to client caches (negative = no grants)")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof + expvar + /debug/d2/* on this address (empty = off)")
		eventLog  = fs.String("event-log", "", "append this node's trace events as JSONL to a file (empty = off)")
		walDir    = fs.String("wal-dir", "", "journal namespace mutations to this directory and recover from it on restart (empty = memory-only)")
		snapEvery = fs.Duration("snapshot-interval", wal.CompactEvery, "namespace snapshot + WAL truncation cadence; an interval that logged nothing writes none (needs -wal-dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv := server.New(server.Config{
		Addr:              *addr,
		MonitorAddr:       *mon,
		HeartbeatInterval: *heartbeat,
		DialTimeout:       *dialTO,
		CallTimeout:       *callTO,
		EntryLease:        *lease,
		WALDir:            *walDir,
		SnapshotInterval:  *snapEvery,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Printf("d2mds %d listening on %s (monitor %s)\n", srv.ID(), srv.Addr(), *mon)

	if *eventLog != "" {
		f, err := os.OpenFile(*eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			_ = srv.Close()
			return err
		}
		fl := obs.NewFlusher(srv.Obs(), f, time.Second)
		defer func() {
			_ = fl.Close()
			_ = f.Close()
		}()
	}
	if *debugAddr != "" {
		ln, err := obs.ServeDebug(*debugAddr, srv.Obs(),
			func() interface{} { return srv.OpLatencies() })
		if err != nil {
			_ = srv.Close()
			return err
		}
		defer func() { _ = ln.Close() }()
		fmt.Printf("d2mds: debug endpoints on http://%s/debug/\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("d2mds: shutting down")
	return srv.Close()
}
