package monitor

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"d2tree/internal/core"
	"d2tree/internal/metrics"
	"d2tree/internal/namespace"
	"d2tree/internal/partition"
	"d2tree/internal/wire"
)

const beat = 100 * time.Millisecond

// rig drives a Monitor from a fake clock with synthetic heartbeats: no
// listener, no sleeps. Member addresses refuse connections at once, so the
// pushes a failover spawns end promptly; Close waits for them.
type rig struct {
	t   *testing.T
	m   *Monitor
	now time.Time
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	m, err := New(testTree(t).Tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, m: m, now: time.Unix(1000, 0)}
	m.SetClock(func() time.Time { return r.now })
	t.Cleanup(func() { _ = m.Close() })
	for id := 0; id < cfg.Servers; id++ {
		if _, err := m.handleJoin(&wire.JoinRequest{Addr: addrOf(id)}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func addrOf(id int) string { return fmt.Sprintf("127.0.0.1:%d", id+1) }

// round advances the clock one beat, heartbeats every member with the ops it
// served since the last one, and returns the transfer commands handed out.
func (r *rig) round(ops func(id int) float64) []wire.TransferCommand {
	r.t.Helper()
	r.now = r.now.Add(beat)
	var cmds []wire.TransferCommand
	for id := 0; id < r.m.cfg.Servers; id++ {
		resp, err := r.m.handleHeartbeat(&wire.HeartbeatRequest{ServerID: id, Addr: addrOf(id), Load: ops(id)})
		if err != nil {
			r.t.Fatal(err)
		}
		cmds = append(cmds, resp.Transfers...)
	}
	return cmds
}

// TestAdjustmentHoldsStill feeds equal mean loads with ±15 % per-beat jitter:
// a stationary balanced stream must plan no move at all.
func TestAdjustmentHoldsStill(t *testing.T) {
	for _, servers := range []int{2, 3} {
		r := newRig(t, Config{Servers: servers})
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			r.round(func(int) float64 { return 5000 * (0.85 + 0.3*rng.Float64()) })
		}
		st := r.m.Stats()
		if st.TransfersPlanned != 0 {
			t.Errorf("%d servers: %d transfers planned on a balanced stationary load", servers, st.TransfersPlanned)
		}
		// Every round that ran says so, with what it saw and what it did.
		var rounds int64
		for _, ev := range r.m.rec.Snapshot() {
			if ev.Op == "round" && strings.Contains(ev.Detail, "ops/s variance=") && strings.Contains(ev.Detail, "moves=0 planned") {
				rounds++
			}
		}
		if rounds < 10 || rounds != r.m.round {
			t.Errorf("%d servers: %d round events for %d adjustment rounds, want one each and at least 10", servers, rounds, r.m.round)
		}
		for _, mem := range st.Members {
			if mem.Load < 45000 || mem.Load > 55000 {
				t.Errorf("%d servers: mds-%d reports load %.0f ops/s, fed about 50000", servers, mem.ID, mem.Load)
			}
		}
	}
}

// TestAdjustmentConvergesThenQuiet shifts the load so one member carries 3×
// the others': the planner must answer within a bounded number of rounds,
// leave the true loads better balanced, and then plan nothing more.
func TestAdjustmentConvergesThenQuiet(t *testing.T) {
	const servers = 3
	r := newRig(t, Config{Servers: servers, AdjustInterval: time.Second})
	m := r.m

	// Each subtree serves a fixed rate, proportional to its popularity and
	// scaled so every member starts at 1000 ops per beat; after the shift the
	// subtrees that started on mds-0 serve three times that.
	held := make([]float64, servers)
	pop := make(map[string]float64)
	first := make(map[string]int)
	for root, owner := range m.subtreeOwner {
		n, err := m.tree.Lookup(root)
		if err != nil {
			t.Fatal(err)
		}
		pop[root], first[root] = float64(n.TotalPopularity()), owner
		held[owner] += pop[root]
	}
	hot := 1.0
	loads := func() []float64 {
		out := make([]float64, servers)
		for root, owner := range m.subtreeOwner {
			rate := 1000 * pop[root] / held[first[root]]
			if first[root] == 0 {
				rate *= hot
			}
			out[owner] += rate
		}
		return out
	}
	variance := func() float64 {
		v, err := metrics.BalanceVariance(loads(), partition.Capacities(servers, 1))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// drive runs n beats, acking every command at once, and returns the beat
	// of the first and of the last move (0: none).
	drive := func(n int) (firstMove, lastMove int) {
		for i := 1; i <= n; i++ {
			cur := loads()
			for _, cmd := range r.round(func(id int) float64 { return cur[id] }) {
				if _, err := m.handleTransferDone(&wire.TransferDoneRequest{RootPath: cmd.RootPath, DestAddr: cmd.DestAddr}); err != nil {
					t.Fatal(err)
				}
				if firstMove == 0 {
					firstMove = i
				}
				lastMove = i
			}
		}
		return firstMove, lastMove
	}

	if _, last := drive(50); last != 0 {
		t.Fatalf("moves planned before the shift (beat %d)", last)
	}
	hot = 3
	before := variance()
	firstMove, lastMove := drive(100)
	// The decayed load needs about one time constant (10 beats) to show the
	// shift, and planning runs once per AdjustInterval.
	if firstMove == 0 || firstMove > 20 {
		t.Fatalf("first move at beat %d after the shift, want within 20", firstMove)
	}
	if lastMove > 40 {
		t.Errorf("still moving at beat %d after the shift, want quiet after 40", lastMove)
	}
	if after := variance(); after >= before/4 {
		t.Errorf("Eq. 2 variance of the true loads %.4g -> %.4g, want at most a quarter", before, after)
	}
	planned := m.Stats().TransfersPlanned
	if _, last := drive(100); last != 0 {
		t.Errorf("%d further transfers planned after convergence", m.Stats().TransfersPlanned-planned)
	}
}

// TestAdjustmentSimEqualsLive gives the simulator's Adjuster.Rebalance and
// the Monitor's planning call the same subtrees, owners and loads: one
// engine, so one move list.
func TestAdjustmentSimEqualsLive(t *testing.T) {
	const servers = 3
	r := newRig(t, Config{Servers: servers})
	m := r.m
	r.now = r.now.Add(m.cfg.AdjustInterval) // a round is due
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, load := range []float64{9000, 2500, 1500} {
		m.members[id].load = load
	}
	loads := make([]float64, servers)
	for k, mem := range m.members {
		loads[k] = mem.load / loadUnit
	}

	type move struct {
		root     namespace.NodeID
		from, to int
	}
	d, err := core.New(m.tree, servers, core.Config{GLProportion: m.cfg.GLProportion})
	if err != nil {
		t.Fatal(err)
	}
	was := make([]partition.ServerID, len(d.Subtrees()))
	for i := range was {
		was[i], _ = d.SubtreeOwner(i)
	}
	if _, err := core.NewAdjuster(core.AdjusterConfig{}).Rebalance(d, loads); err != nil {
		t.Fatal(err)
	}
	var sim []move
	for i, st := range d.Subtrees() {
		if now, _ := d.SubtreeOwner(i); now != was[i] {
			sim = append(sim, move{st.Root, int(was[i]), int(now)})
		}
	}

	m.planAdjustmentLocked()
	var live []move
	for src, cmds := range m.transfers {
		for _, cmd := range cmds {
			n, err := m.tree.Lookup(cmd.RootPath)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, move{n.ID(), src, m.inFlight[cmd.RootPath].dest})
		}
	}
	for _, mv := range [][]move{sim, live} {
		sort.Slice(mv, func(i, j int) bool { return mv[i].root < mv[j].root })
	}
	if len(sim) == 0 {
		t.Fatal("the simulator planned no move; the comparison is empty")
	}
	if fmt.Sprint(sim) != fmt.Sprint(live) {
		t.Errorf("move lists differ:\n sim  %v\n live %v", sim, live)
	}
}

// TestFailoverPlacesOrphansByLPT kills one of three members and checks the
// orphans land exactly where core.GreedyLPT puts them, spread over both
// survivors.
func TestFailoverPlacesOrphansByLPT(t *testing.T) {
	r := newRig(t, Config{Servers: 3, HeartbeatTimeout: time.Second})
	m := r.m
	r.now = r.now.Add(2 * time.Second)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.members[1].lastSeen, m.members[2].lastSeen = r.now, r.now

	var orphans []string
	for root, owner := range m.subtreeOwner {
		if owner == 0 {
			orphans = append(orphans, root)
		}
	}
	sort.Strings(orphans)
	if len(orphans) < 2 {
		t.Fatalf("mds-0 owns %d subtrees, need at least 2", len(orphans))
	}
	subtrees := make([]core.Subtree, len(orphans))
	for i, root := range orphans {
		n, err := m.tree.Lookup(root)
		if err != nil {
			t.Fatal(err)
		}
		subtrees[i] = core.Subtree{Root: n.ID(), Popularity: n.TotalPopularity() + 1}
	}
	want, err := core.GreedyLPT(subtrees, partition.Capacities(2, 1))
	if err != nil {
		t.Fatal(err)
	}

	m.checkFailuresLocked()
	if m.members[0].alive {
		t.Fatal("silent member still alive")
	}
	got := make(map[int]int)
	for i, root := range orphans {
		f, moving := m.inFlight[root]
		if survivor := int(want[i]) + 1; !moving || f.dest != survivor {
			t.Errorf("orphan %s: in flight to %d (%v), GreedyLPT says %d", root, f.dest, moving, survivor)
		}
		got[f.dest]++
	}
	if got[1] == 0 || got[2] == 0 {
		t.Errorf("orphans per survivor = %v: one survivor took the dead peer's whole share", got)
	}
}
