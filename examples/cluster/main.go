// Cluster: boot a real TCP D2-Tree cluster on loopback — one Monitor and
// three metadata servers — then drive it with the client library: path
// lookups routed by the cached local index, a local-layer create, a
// global-layer update ordered by the Monitor, and per-server statistics.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"time"

	"d2tree"
	"d2tree/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The Monitor owns the authoritative namespace and computes the initial
	// double-layer partition for the expected cluster size.
	w, err := d2tree.BuildWorkload(d2tree.LMBE().Scale(2000), 10000, 3)
	if err != nil {
		return err
	}
	mon, err := d2tree.NewMonitor(w.Tree, d2tree.MonitorConfig{
		Addr:    "127.0.0.1:0",
		Servers: 3,
	})
	if err != nil {
		return err
	}
	if err := mon.Start(); err != nil {
		return err
	}
	defer func() { _ = mon.Close() }()
	fmt.Println("monitor listening on", mon.Addr())

	// Three MDSs join; each receives the GL replica plus its subtrees.
	var servers []*d2tree.Server
	for i := 0; i < 3; i++ {
		srv := d2tree.NewServer(d2tree.ServerConfig{
			Addr:              "127.0.0.1:0",
			MonitorAddr:       mon.Addr(),
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err := srv.Start(); err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		servers = append(servers, srv)
		fmt.Printf("mds %d listening on %s\n", srv.ID(), srv.Addr())
	}

	c, err := d2tree.ConnectClient(d2tree.ClientConfig{MonitorAddr: mon.Addr(), Seed: 1})
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()

	// Lookups across the namespace — shallow paths hit the replicated
	// global layer on any server; deep paths route to the subtree owner via
	// the cached local index.
	fmt.Println("\nlookups:")
	count := 0
	for _, n := range w.Tree.Nodes() {
		if count >= 5 {
			break
		}
		if n.Depth() != 3 {
			continue
		}
		p := w.Tree.Path(n)
		e, err := c.Lookup(p)
		if err != nil {
			return err
		}
		fmt.Printf("  %-40s kind=%d version=%d\n", e.Path, e.Kind, e.Version)
		count++
	}

	// A local-layer create needs no cluster-wide coordination.
	var deepDir string
	for _, n := range w.Tree.Nodes() {
		if n.IsDir() && n.Depth() >= 3 {
			deepDir = w.Tree.Path(n)
			break
		}
	}
	created, err := c.Create(deepDir+"/hello.txt", wire.EntryFile)
	if err != nil {
		return err
	}
	fmt.Printf("\ncreated local-layer file %s (version %d)\n", created.Path, created.Version)

	// A global-layer update is forwarded to the Monitor, which orders it
	// against every other, and propagates to the replicas via heartbeats.
	updated, err := c.SetAttr("/", 0, 0o755)
	if err != nil {
		return err
	}
	fmt.Printf("updated global-layer root: version %d\n", updated.Version)

	time.Sleep(300 * time.Millisecond) // let heartbeats spread the new GL
	fmt.Println("\nper-server stats:")
	for _, srv := range servers {
		st, err := c.Stats(srv.Addr())
		if err != nil {
			return err
		}
		fmt.Printf("  %s: ops=%d entries=%d subtrees=%d glVersion=%d\n",
			st.Server, st.Ops, st.Entries, st.SubtreeCnt, st.GLVersion)
	}
	return nil
}
