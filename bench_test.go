package d2tree

import (
	"fmt"
	"io"
	"strconv"
	"testing"

	"d2tree/internal/core"
	"d2tree/internal/experiments"
	"d2tree/internal/metrics"
	"d2tree/internal/partition"
	"d2tree/internal/sim"
	"d2tree/internal/trace"
)

// benchConfig shrinks the experiment configuration so every table/figure
// bench completes in seconds per iteration while exercising the identical
// code path as `d2bench -full`.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.TreeNodes = 2000
	cfg.Events = 10000
	cfg.Rounds = 2
	cfg.MList = []int{5, 15, 30}
	return cfg
}

// --- One bench per table and figure of the paper's evaluation ---

// BenchmarkTable1Datasets regenerates Table I.
func BenchmarkTable1Datasets(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.FormatTable1(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2OpMix regenerates Table II.
func BenchmarkTable2OpMix(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.FormatTable2(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Throughput regenerates Fig. 5 (throughput vs cluster size,
// three traces × five schemes).
func BenchmarkFig5Throughput(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Locality regenerates Fig. 6 (Eq. 1 locality).
func BenchmarkFig6Locality(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Balance regenerates Fig. 7 (Eq. 2 balance after replay
// rounds with rebalancing).
func BenchmarkFig7Balance(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Constraints regenerates Fig. 8 (L0/U0 vs GL proportion).
func BenchmarkFig8Constraints(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9GLBalance regenerates Fig. 9 (balance vs cluster size under
// four GL proportions).
func BenchmarkFig9GLBalance(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches for the design choices called out in DESIGN.md ---

func ablationWorkload(b *testing.B) *trace.Workload {
	b.Helper()
	w, err := trace.BuildWorkload(trace.LMBE().Scale(4000), 30000, 7)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkAblationAllocator compares mirror division against greedy LPT on
// the same subtree set, reporting the resulting balance variance of each.
func BenchmarkAblationAllocator(b *testing.B) {
	w := ablationWorkload(b)
	split, err := core.SplitProportion(w.Tree, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	caps := partition.Capacities(8, 1)
	b.Run("MirrorDivide", func(b *testing.B) {
		var variance float64
		for i := 0; i < b.N; i++ {
			alloc, err := core.MirrorDivide(split.Subtrees, caps, core.AllocConfig{})
			if err != nil {
				b.Fatal(err)
			}
			loads := core.AllocationLoads(split.Subtrees, alloc, 8)
			variance, _ = metrics.BalanceVariance(loads, caps)
		}
		b.ReportMetric(variance, "loadvar")
	})
	b.Run("GreedyLPT", func(b *testing.B) {
		var variance float64
		for i := 0; i < b.N; i++ {
			alloc, err := core.GreedyLPT(split.Subtrees, caps)
			if err != nil {
				b.Fatal(err)
			}
			loads := core.AllocationLoads(split.Subtrees, alloc, 8)
			variance, _ = metrics.BalanceVariance(loads, caps)
		}
		b.ReportMetric(variance, "loadvar")
	})
}

// BenchmarkAblationSampling sweeps the DKW sample size used by mirror
// division, reporting the balance variance each sample budget achieves.
func BenchmarkAblationSampling(b *testing.B) {
	w := ablationWorkload(b)
	split, err := core.SplitProportion(w.Tree, 0.05) // more, smaller subtrees
	if err != nil {
		b.Fatal(err)
	}
	caps := partition.Capacities(8, 1)
	for _, sample := range []int{0, 16, 64, 256} {
		name := "exact"
		if sample > 0 {
			name = "sample" + strconv.Itoa(sample)
		}
		b.Run(name, func(b *testing.B) {
			var variance float64
			for i := 0; i < b.N; i++ {
				alloc, err := core.MirrorDivide(split.Subtrees, caps,
					core.AllocConfig{SampleSize: sample, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				loads := core.AllocationLoads(split.Subtrees, alloc, 8)
				variance, _ = metrics.BalanceVariance(loads, caps)
			}
			b.ReportMetric(variance, "loadvar")
		})
	}
}

// BenchmarkAblationSubtreeGranularity compares D2-Tree's intact subtrees
// against a finer-grained variant (larger GL ⇒ smaller local subtrees),
// reporting throughput: intactness trades some balance for fewer jumps.
func BenchmarkAblationSubtreeGranularity(b *testing.B) {
	w := ablationWorkload(b)
	cm := sim.DefaultCostModel()
	for _, prop := range []float64{0.002, 0.01, 0.05} {
		b.Run(fmt.Sprintf("gl%g", prop), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				s := &core.Scheme{Cfg: core.Config{GLProportion: prop}}
				res, err := sim.Run(w, s, 8, 2, cm, 3)
				if err != nil {
					b.Fatal(err)
				}
				tput = res.ThroughputOps
			}
			b.ReportMetric(tput, "ops/s")
		})
	}
}

// BenchmarkAblationGLReplicas sweeps the bounded-replication threshold (the
// paper's Sec. VII future-work knob) on the update-heavy RA trace,
// reporting throughput and forwarding hops: fewer replicas cut update cost
// but add forwards and narrow GL load spreading.
func BenchmarkAblationGLReplicas(b *testing.B) {
	w, err := trace.BuildWorkload(trace.RA().Scale(4000), 30000, 7)
	if err != nil {
		b.Fatal(err)
	}
	cm := sim.DefaultCostModel()
	for _, r := range []int{1, 2, 4, 0} { // 0 = replicate everywhere
		name := "all"
		if r > 0 {
			name = "r" + strconv.Itoa(r)
		}
		b.Run(name, func(b *testing.B) {
			var tput, hops float64
			for i := 0; i < b.N; i++ {
				s := &core.Scheme{Cfg: core.Config{GLProportion: 0.01, GLReplicas: r}}
				res, err := sim.Run(w, s, 8, 2, cm, 3)
				if err != nil {
					b.Fatal(err)
				}
				tput, hops = res.ThroughputOps, res.AvgJumps
			}
			b.ReportMetric(tput, "ops/s")
			b.ReportMetric(hops, "hops/op")
		})
	}
}

// --- Micro benches on the hot paths ---

// BenchmarkTreeSplitting measures Alg. 1 on a 20k-node namespace.
func BenchmarkTreeSplitting(b *testing.B) {
	w, err := trace.BuildWorkload(trace.DTR().Scale(20000), 50000, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SplitProportion(w.Tree, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMirrorDivide measures the allocator on ~2k subtrees.
func BenchmarkMirrorDivide(b *testing.B) {
	w, err := trace.BuildWorkload(trace.LMBE().Scale(20000), 50000, 5)
	if err != nil {
		b.Fatal(err)
	}
	split, err := core.SplitProportion(w.Tree, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	caps := partition.Capacities(32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MirrorDivide(split.Subtrees, caps, core.AllocConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalIndexLocate measures client-side routing lookups.
func BenchmarkLocalIndexLocate(b *testing.B) {
	w, err := trace.BuildWorkload(trace.RA().Scale(10000), 20000, 5)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.New(w.Tree, 16, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	nodes := w.Tree.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Index().Locate(nodes[i%len(nodes)])
	}
}

// BenchmarkReplay measures the simulator's per-event cost.
func BenchmarkReplay(b *testing.B) {
	w, err := trace.BuildWorkload(trace.DTR().Scale(5000), 50000, 5)
	if err != nil {
		b.Fatal(err)
	}
	s := &core.Scheme{}
	asg, err := s.Partition(w.Tree, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Replay(w.Tree, w.Events, asg, s, sim.DefaultCostModel(), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(w.Events)))
}

// BenchmarkReplayWorkers pins the sharded kernel at explicit worker counts
// (w0 = GOMAXPROCS), so the serial and parallel replay are timed apart.
func BenchmarkReplayWorkers(b *testing.B) {
	w, err := trace.BuildWorkload(trace.DTR().Scale(5000), 50000, 5)
	if err != nil {
		b.Fatal(err)
	}
	s := &core.Scheme{}
	asg, err := s.Partition(w.Tree, 16)
	if err != nil {
		b.Fatal(err)
	}
	for _, wc := range []int{1, 2, 4, 0} {
		b.Run(fmt.Sprintf("w%d", wc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.ReplayWorkers(w.Tree, w.Events, asg, s, sim.DefaultCostModel(), 1, wc); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(w.Events)))
		})
	}
}

// BenchmarkCompileRoutes measures the per-round route-table compile — the
// fixed cost the replay kernel's O(1) event loop buys its speed with.
func BenchmarkCompileRoutes(b *testing.B) {
	w, err := trace.BuildWorkload(trace.DTR().Scale(5000), 50000, 5)
	if err != nil {
		b.Fatal(err)
	}
	s := &core.Scheme{}
	asg, err := s.Partition(w.Tree, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.CompileRoutes(w.Tree, asg, s); err != nil {
			b.Fatal(err)
		}
	}
}
