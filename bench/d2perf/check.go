package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"d2tree/internal/client"
	"d2tree/internal/trace"
	"d2tree/internal/wire"
)

// checkOutputs verifies what the cluster serves against the generated tree
// once the lanes have stopped:
//   - sampled paths look up, through a cache-off client, with the right path
//     and kind;
//   - on a listing workload, sampled directories list exactly the tree's
//     child count;
//   - sampled updated paths read back, from the MDS that owns them or from
//     some global-layer replica, at a version no lower than the highest one
//     acked to a lane.
//
// staleReplicas counts the sampled updated paths that some global-layer
// replica still serves below the acked version after the settle time. The
// Monitor refreshes a replica only when its GL version is behind, and a
// replica that commits its own update adopts the newest GL version without
// the other replicas' updates in between; the count makes that visible
// without failing the run.
func checkOutputs(ctl *client.Client, mdsAddr []string, w *trace.Workload, wl workload, acked map[string]int64, rng *rand.Rand) (staleReplicas int, err error) {
	nodes := w.Tree.Nodes()
	var dirsSeen int
	for i := 0; i < checkPaths; i++ {
		n := nodes[rng.Intn(len(nodes))]
		path := w.Tree.Path(n)
		e, err := ctl.Lookup(path)
		if err != nil {
			return 0, fmt.Errorf("lookup %s: %w", path, err)
		}
		if e.Path != path || (e.Kind == wire.EntryDir) != n.IsDir() {
			return 0, fmt.Errorf("lookup %s returned path %q kind %d, tree has %v", path, e.Path, e.Kind, n.Kind())
		}
		if wl.Listing && n.IsDir() && dirsSeen < checkPaths/5 {
			dirsSeen++
			entries, err := ctl.ReaddirPlus(path)
			if err != nil {
				return 0, fmt.Errorf("readdirplus %s: %w", path, err)
			}
			if len(entries) != n.NumChildren() {
				return 0, fmt.Errorf("readdirplus %s returned %d children, tree has %d", path, len(entries), n.NumChildren())
			}
		}
	}
	if len(acked) == 0 {
		return 0, nil
	}

	// Map order is random; sort so a seed checks the same paths every time.
	paths := make([]string, 0, len(acked))
	for p := range acked {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	if len(paths) > checkPaths {
		paths = paths[:checkPaths]
	}
	// A global-layer update reaches the other replicas with their next
	// heartbeat; give the last ones that long.
	time.Sleep(settleHeartbeats * heartbeat)
	conns := make([]*wire.Conn, len(mdsAddr))
	for i, a := range mdsAddr {
		c, err := wire.DialCall(a, 2*time.Second, 2*time.Second)
		if err != nil {
			return 0, err
		}
		defer func() { _ = c.Close() }()
		conns[i] = c
	}
	for _, p := range paths {
		newest, oldest := int64(-1), int64(-1)
		for _, c := range conns {
			var resp wire.LookupResponse
			if err := c.Call(wire.TypeLookup, &wire.LookupRequest{Path: p}, &resp); err != nil {
				return 0, fmt.Errorf("read back %s: %w", p, err)
			}
			if resp.Entry == nil {
				continue // redirect: this MDS does not hold the path
			}
			v := resp.Entry.Version
			if newest < 0 || v > newest {
				newest = v
			}
			if oldest < 0 || v < oldest {
				oldest = v
			}
		}
		if newest < acked[p] {
			return 0, fmt.Errorf("read back %s at version %d, below acked version %d", p, newest, acked[p])
		}
		if oldest < acked[p] {
			staleReplicas++
		}
	}
	return staleReplicas, nil
}
