// Command d2ctl is the cluster control/demo client: lookup, create,
// setattr, readdir, stats, events and ops against a running D2-Tree
// cluster.
//
// Usage:
//
//	d2ctl -monitor 127.0.0.1:7070 lookup /home/a
//	d2ctl -monitor 127.0.0.1:7070 create /home/a/new.txt file
//	d2ctl -monitor 127.0.0.1:7070 setattr /home/a/new.txt 4096
//	d2ctl -monitor 127.0.0.1:7070 rename /home/a/new.txt renamed.txt
//	d2ctl -monitor 127.0.0.1:7070 readdir /home
//	d2ctl -monitor 127.0.0.1:7070 stats            # monitor + all servers
//	d2ctl -monitor 127.0.0.1:7070 stats 127.0.0.1:7081  # one server in detail
//	d2ctl -monitor 127.0.0.1:7070 events           # merged cluster event log
//	d2ctl -monitor 127.0.0.1:7070 -json events     # same, as JSONL (grep a reqId)
//	d2ctl -monitor 127.0.0.1:7070 ops              # per-op latency histograms
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"d2tree/internal/client"
	"d2tree/internal/obs"
	"d2tree/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "d2ctl:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("d2ctl", flag.ContinueOnError)
	mon := fs.String("monitor", "127.0.0.1:7070", "monitor address")
	asJSON := fs.Bool("json", false, "emit machine-readable output (events: JSONL; ops: one JSON object)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("need a command: lookup|create|setattr|rename|readdir|stats [addr]|events|ops")
	}
	c, err := client.Connect(client.Config{MonitorAddr: *mon})
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()

	switch rest[0] {
	case "lookup":
		if len(rest) != 2 {
			return errors.New("usage: lookup <path>")
		}
		e, err := c.Lookup(rest[1])
		if err != nil {
			return err
		}
		printEntry(w, e)
	case "create":
		if len(rest) != 3 {
			return errors.New("usage: create <path> file|dir")
		}
		kind := wire.EntryFile
		if rest[2] == "dir" {
			kind = wire.EntryDir
		}
		e, err := c.Create(rest[1], kind)
		if err != nil {
			return err
		}
		printEntry(w, e)
	case "setattr":
		if len(rest) != 3 {
			return errors.New("usage: setattr <path> <size>")
		}
		size, err := strconv.ParseInt(rest[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad size %q: %w", rest[2], err)
		}
		e, err := c.SetAttr(rest[1], size, 0o644)
		if err != nil {
			return err
		}
		printEntry(w, e)
	case "rename":
		if len(rest) != 3 {
			return errors.New("usage: rename <path> <newname>")
		}
		e, err := c.Rename(rest[1], rest[2])
		if err != nil {
			return err
		}
		printEntry(w, e)
	case "readdir":
		if len(rest) != 2 {
			return errors.New("usage: readdir <path>")
		}
		names, err := c.Readdir(rest[1])
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(w, n)
		}
	case "stats":
		// stats <addr> prints one server in detail; bare stats prints the
		// Monitor's coordinator view plus every live server.
		if len(rest) == 2 {
			st, err := c.Stats(rest[1])
			if err != nil {
				return err
			}
			printServerStats(w, st)
			return nil
		}
		ms, err := c.MonitorStats()
		if err != nil {
			return err
		}
		journal := "ok"
		if ms.JournalDegraded {
			journal = "DEGRADED"
		}
		fmt.Fprintf(w, "monitor heartbeats=%d transfers planned=%d done=%d failed=%d reissued=%d glv=%d indexv=%d\n",
			ms.Heartbeats, ms.TransfersPlanned, ms.TransfersDone,
			ms.TransfersFailed, ms.TransfersReissued, ms.GLVersion, ms.IndexVer)
		// Records per flush above 1 is group commit at work.
		fmt.Fprintf(w, "  journal appends=%d flushes=%d state=%s\n", ms.JournalAppends, ms.JournalFlushes, journal)
		printWireIO(w, ms.ServeIO, ms.ConnIO, ms.BadFrames)
		for _, mem := range ms.Members {
			state := "alive"
			if !mem.Alive {
				state = "dead"
			}
			fmt.Fprintf(w, "member %d %s %s load=%.0f ops=%d\n",
				mem.ID, mem.Addr, state, mem.Load, mem.Ops)
		}
		for _, addr := range c.Servers() {
			st, err := c.Stats(addr)
			if err != nil {
				return err
			}
			printServerStats(w, st)
		}
	case "events":
		// Merge the Monitor's and every server's event ring, oldest first.
		if len(rest) != 1 {
			return errors.New("usage: events")
		}
		dumps, err := collectDumps(c)
		if err != nil {
			return err
		}
		var events []obs.Event
		for _, d := range dumps {
			if d.Dropped > 0 {
				fmt.Fprintf(os.Stderr, "d2ctl: %s dropped %d events (ring overwrote them)\n", d.Node, d.Dropped)
			}
			events = append(events, d.Events...)
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
		if *asJSON {
			return obs.WriteJSONL(w, events)
		}
		for _, ev := range events {
			printEvent(w, ev)
		}
	case "ops":
		// Per-node, per-op latency histograms (server-side service time).
		if len(rest) != 1 {
			return errors.New("usage: ops")
		}
		dumps, err := collectDumps(c)
		if err != nil {
			return err
		}
		if *asJSON {
			byNode := make(map[string]map[string]wire.LatencySummary, len(dumps))
			for _, d := range dumps {
				byNode[d.Node] = d.Ops
			}
			enc := json.NewEncoder(w)
			return enc.Encode(byNode)
		}
		for _, d := range dumps {
			fmt.Fprintf(w, "%s\n", d.Node)
			ops := make([]string, 0, len(d.Ops))
			for op := range d.Ops {
				ops = append(ops, op)
			}
			sort.Strings(ops)
			for _, op := range ops {
				s := d.Ops[op]
				fmt.Fprintf(w, "  %-15s n=%d mean=%dµs p50=%dµs p90=%dµs p99=%dµs max=%dµs\n",
					op, s.Count, s.MeanUS, s.P50US, s.P90US, s.P99US, s.MaxUS)
			}
		}
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
	return nil
}

// collectDumps fetches the Monitor's observability dump plus one per live
// server, monitor first.
func collectDumps(c *client.Client) ([]*wire.ObsDumpResponse, error) {
	md, err := c.MonitorObsDump(0)
	if err != nil {
		return nil, err
	}
	dumps := []*wire.ObsDumpResponse{md}
	for _, addr := range c.Servers() {
		d, err := c.ObsDump(addr, 0)
		if err != nil {
			return nil, err
		}
		dumps = append(dumps, d)
	}
	return dumps, nil
}

func printEvent(w io.Writer, ev obs.Event) {
	ts := time.Unix(0, ev.TS).Format("15:04:05.000")
	fmt.Fprintf(w, "%s %-9s %-9s %-13s", ts, ev.Node, ev.Kind, ev.Op)
	if ev.ReqID != "" {
		fmt.Fprintf(w, " req=%s", ev.ReqID)
	}
	if ev.From != "" {
		fmt.Fprintf(w, " from=%s", ev.From)
	}
	if ev.Path != "" {
		fmt.Fprintf(w, " path=%s", ev.Path)
	}
	if ev.DurUS != 0 {
		fmt.Fprintf(w, " dur=%dµs", ev.DurUS)
	}
	if ev.Detail != "" {
		fmt.Fprintf(w, " (%s)", ev.Detail)
	}
	if ev.Err != "" {
		fmt.Fprintf(w, " err=%q", ev.Err)
	}
	fmt.Fprintln(w)
}

func printServerStats(w io.Writer, st *wire.StatsResponse) {
	fmt.Fprintf(w, "%s ops=%d lookups=%d creates=%d setattrs=%d redirects=%d entries=%d subtrees=%d glv=%d\n",
		st.Server, st.Ops, st.Lookups, st.Creates, st.SetAttrs,
		st.Redirects, st.Entries, st.SubtreeCnt, st.GLVersion)
	fmt.Fprintf(w, "  rpc calls=%d retries=%d timeouts=%d redials=%d failures=%d hb_misses=%d transfers ok=%d fail=%d\n",
		st.MonRPC.Calls, st.MonRPC.Retries, st.MonRPC.Timeouts,
		st.MonRPC.Redials, st.MonRPC.Failures, st.HeartbeatMisses,
		st.TransferOK, st.TransferFail)
	fmt.Fprintf(w, "  hb_rtt n=%d mean=%dµs p50=%dµs p90=%dµs p99=%dµs max=%dµs\n",
		st.HeartbeatRTT.Count, st.HeartbeatRTT.MeanUS, st.HeartbeatRTT.P50US,
		st.HeartbeatRTT.P90US, st.HeartbeatRTT.P99US, st.HeartbeatRTT.MaxUS)
	fmt.Fprintf(w, "  leases granted=%d revalidate hits=%d misses=%d\n",
		st.LeasesGranted, st.RevalidateHits, st.RevalidateMisses)
	fmt.Fprintf(w, "  compound batches=%d sub_ops=%d readdirplus=%d\n",
		st.Batches, st.BatchSubOps, st.ReaddirPlus)
	wal := "ok"
	if st.WalDegraded {
		wal = "DEGRADED"
	}
	fmt.Fprintf(w, "  wal appends=%d flushes=%d snapshots=%d state=%s\n",
		st.WalAppends, st.WalFlushes, st.Snapshots, wal)
	printWireIO(w, st.ServeIO, st.ConnIO, st.BadFrames)
	for _, root := range st.Subtrees {
		fmt.Fprintf(w, "  subtree %s\n", root)
	}
}

// printWireIO prints one process's wire traffic as frames per syscall — the
// requests it served and the calls it made — and the frames it refused as
// malformed: 0 unless some peer speaks another format.
func printWireIO(w io.Writer, serve, conn wire.IOSnapshot, badFrames int64) {
	for _, side := range []struct {
		name string
		io   wire.IOSnapshot
	}{{"serve", serve}, {"conn", conn}} {
		fmt.Fprintf(w, "  wire %-5s frames in=%d reads=%d (%.2f/read) out=%d writes=%d (%.2f/write)\n",
			side.name, side.io.FramesIn, side.io.Reads, perSyscall(side.io.FramesIn, side.io.Reads),
			side.io.FramesOut, side.io.Writes, perSyscall(side.io.FramesOut, side.io.Writes))
	}
	fmt.Fprintf(w, "  wire bad frames=%d\n", badFrames)
}

func perSyscall(frames, syscalls int64) float64 {
	if syscalls == 0 {
		return 0
	}
	return float64(frames) / float64(syscalls)
}

func printEntry(w io.Writer, e *wire.Entry) {
	kind := "file"
	if e.Kind == wire.EntryDir {
		kind = "dir"
	}
	fmt.Fprintf(w, "%s %s size=%d mode=%o version=%d\n", kind, e.Path, e.Size, e.Mode, e.Version)
}
