package core

import (
	"errors"
	"sync"
	"testing"

	"d2tree/internal/metrics"
	"d2tree/internal/namespace"
	"d2tree/internal/partition"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Add(1, 2)
	c.Add(1, 3)
	c.Add(2, 1)
	if c.Get(1) != 5 || c.Get(2) != 1 || c.Get(3) != 0 {
		t.Errorf("Get wrong: %v %v %v", c.Get(1), c.Get(2), c.Get(3))
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	c.Decay(0.5, 0.6)
	if c.Get(1) != 2.5 {
		t.Errorf("decayed = %v, want 2.5", c.Get(1))
	}
	if c.Get(2) != 0 || c.Len() != 1 {
		t.Error("epsilon eviction failed")
	}
	snap := c.Snapshot()
	snap[1] = 99
	if c.Get(1) == 99 {
		t.Error("Snapshot aliases internal map")
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(namespace.NodeID(j%10), 1)
				_ = c.Get(namespace.NodeID(j % 10))
			}
		}()
	}
	wg.Wait()
	var total float64
	for _, v := range c.Snapshot() {
		total += v
	}
	if total != 8000 {
		t.Errorf("total = %v, want 8000", total)
	}
}

func TestCountersApplyToTree(t *testing.T) {
	tr := buildFig2Tree(t)
	c := NewCounters()
	leaf, _ := tr.Lookup("/home/b/h.jpg")
	c.Add(leaf.ID(), 42)
	c.ApplyToTree(tr)
	if leaf.SelfPopularity() != 42 {
		t.Errorf("self pop = %d, want 42", leaf.SelfPopularity())
	}
	// Untracked nodes zeroed.
	other, _ := tr.Lookup("/home/a/c.txt")
	if other.SelfPopularity() != 0 {
		t.Errorf("untracked node pop = %d, want 0", other.SelfPopularity())
	}
	if err := tr.CheckPopularity(); err != nil {
		t.Error(err)
	}
}

func TestPendingPoolDrainOrder(t *testing.T) {
	p := NewPendingPool()
	p.Offer(PendingEntry{SubtreeIdx: 0, Subtree: Subtree{Root: 3, Popularity: 5}})
	p.Offer(PendingEntry{SubtreeIdx: 1, Subtree: Subtree{Root: 1, Popularity: 9}})
	p.Offer(PendingEntry{SubtreeIdx: 2, Subtree: Subtree{Root: 2, Popularity: 5}})
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	peek := p.Peek()
	if len(peek) != 3 || p.Len() != 3 {
		t.Error("Peek should not consume")
	}
	got := p.Drain()
	if p.Len() != 0 {
		t.Error("Drain should empty the pool")
	}
	wantRoots := []namespace.NodeID{1, 2, 3} // pop desc, then root asc
	for i, e := range got {
		if e.Subtree.Root != wantRoots[i] {
			t.Errorf("drain[%d].Root = %d, want %d", i, e.Subtree.Root, wantRoots[i])
		}
	}
}

func TestAdjusterArgValidation(t *testing.T) {
	adj := NewAdjuster(AdjusterConfig{})
	if _, err := adj.Rebalance(nil, nil); !errors.Is(err, ErrNilTree) {
		t.Errorf("want ErrNilTree, got %v", err)
	}
	tr := buildWorkloadTree(t, 500, 1)
	d, err := New(tr, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adj.Rebalance(d, []float64{1}); !errors.Is(err, ErrLoadsLen) {
		t.Errorf("want ErrLoadsLen, got %v", err)
	}
}

func TestAdjusterNoMovesWhenBalanced(t *testing.T) {
	tr := buildWorkloadTree(t, 800, 2)
	d, err := New(tr, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	adj := NewAdjuster(AdjusterConfig{Slack: 0.5})
	moved, err := adj.Rebalance(d, []float64{10, 10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("moved = %d on a balanced cluster", moved)
	}
}

func TestAdjusterImprovesBalance(t *testing.T) {
	tr := buildWorkloadTree(t, 3000, 4)
	m := 4
	d, err := New(tr, m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Force imbalance: dump every subtree on server 0.
	for i := range d.Subtrees() {
		if err := d.MoveSubtree(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	caps := partition.Capacities(m, 1)
	loads := d.Assignment().SelfLoads(tr)
	before, err := metrics.BalanceVariance(loads, caps)
	if err != nil {
		t.Fatal(err)
	}
	adj := NewAdjuster(DefaultAdjusterConfig())
	moved, err := adj.Rebalance(d, loads)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("expected migrations from the overloaded server")
	}
	after, err := metrics.BalanceVariance(d.Assignment().SelfLoads(tr), caps)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("variance did not improve: before %v, after %v", before, after)
	}
	if err := d.Assignment().Validate(tr); err != nil {
		t.Fatalf("assignment broken after rebalance: %v", err)
	}
}

func TestAdjusterZeroLoad(t *testing.T) {
	tr := buildWorkloadTree(t, 500, 7)
	d, err := New(tr, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	moved, err := adjRebalanceZero(d)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("moved = %d with zero load", moved)
	}
}

func adjRebalanceZero(d *D2Tree) (int, error) {
	adj := NewAdjuster(DefaultAdjusterConfig())
	return adj.Rebalance(d, make([]float64, d.M()))
}

func TestResplitAfterDrift(t *testing.T) {
	tr := buildWorkloadTree(t, 1500, 8)
	d, err := New(tr, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	asgRef := d.Assignment()
	// Popularity drift: hammer one deep leaf so its ancestors get hot.
	var deepest *namespace.Node
	for _, n := range tr.Nodes() {
		if deepest == nil || n.Depth() > deepest.Depth() {
			deepest = n
		}
	}
	tr.Touch(deepest, 1_000_000)
	if err := d.Resplit(); err != nil {
		t.Fatal(err)
	}
	// The external assignment reference must observe the new layout.
	if err := asgRef.Validate(tr); err != nil {
		t.Fatalf("stale assignment after resplit: %v", err)
	}
	// The hot chain should now dominate the global layer: the greedy
	// splitter walks down the chain until the GL budget is exhausted, so
	// every ancestor shallower than |GL| must be replicated.
	glSize := d.Assignment().NumReplicated()
	for cur := deepest.Parent(); cur != nil; cur = cur.Parent() {
		if cur.Depth() >= glSize {
			continue
		}
		if !asgRef.IsReplicated(cur.ID()) {
			t.Errorf("hot ancestor %s (depth %d, |GL|=%d) not promoted to GL",
				tr.Path(cur), cur.Depth(), glSize)
		}
	}
}
