package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 12, 11, 13, 9, 14}, 11.5},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{5, 9}, 50); got != 5 {
		t.Errorf("percentile([5 9], 50) = %d, want 5", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
}

// The expected values are statistics.quantiles(values, n=4) in Python.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(ten); !near(got, 1.0) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	six := []float64{10, 12, 11, 13, 9, 14} // quartiles 9.75, 11.5, 13.25
	if got := quartileSpread(six); !near(got, 3.5/11.5) {
		t.Errorf("spread(six windows) = %v, want %v", got, 3.5/11.5)
	}
	three := []float64{0.20, 0.30, 0.25} // quartiles 0.20, 0.25, 0.30
	if got := quartileSpread(three); !near(got, 0.4) {
		t.Errorf("spread(three boots) = %v, want 0.4", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if got := quartileSpread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v, want 0", got)
	}
}

// Two lanes, a 1 s warm-up and two 1 s windows: operations are counted in
// the window they end in, failures count as attempted but carry no latency,
// and anything ending in warm-up or past the deadline is left out.
func TestSummarizeWindows(t *testing.T) {
	plan := loadPlan{warmup: time.Second, window: time.Second, windows: 2}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	lanes := []*lane{
		{
			samples: []sample{
				{end: ms(500), lat: ms(1)},                // warm-up: dropped
				{end: ms(1100), lat: ms(2)},               // window 0
				{end: ms(1900), lat: ms(4)},               // window 0
				{end: ms(2100), lat: ms(8), failed: true}, // window 1, failed
				{end: ms(3000), lat: ms(9)},               // at the deadline: dropped
			},
			acked: map[string]int64{"/a": 3, "/b": 1},
		},
		{
			samples: []sample{
				{end: ms(1500), lat: ms(6)}, // window 0
				{end: ms(2500), lat: ms(3)}, // window 1
			},
			acked: map[string]int64{"/a": 2, "/c": 5},
		},
	}
	got := summarize(lanes, plan)
	if got.attempted != 5 || got.failed != 1 || got.samples != 4 {
		t.Fatalf("attempted/failed/samples = %d/%d/%d, want 5/1/4", got.attempted, got.failed, got.samples)
	}
	if len(got.rates) != 2 || got.rates[0] != 3 || got.rates[1] != 1 {
		t.Errorf("rates = %v, want [3 1]", got.rates)
	}
	if got.p50[0] != 4000 || got.p99[0] != 6000 || got.p50[1] != 3000 {
		t.Errorf("window p50/p99 = %v/%v, want [4000 3000]/[6000 ...]", got.p50, got.p99)
	}
	if got.acked["/a"] != 3 || got.acked["/b"] != 1 || got.acked["/c"] != 5 {
		t.Errorf("acked = %v, want the highest version per path", got.acked)
	}
}

func TestWindowOf(t *testing.T) {
	plan := loadPlan{warmup: 5 * time.Second, window: 2 * time.Second, windows: 3}
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{{0, -1}, {5*time.Second - 1, -1}, {5 * time.Second, 0}, {7 * time.Second, 1}, {11*time.Second - 1, 2}, {11 * time.Second, -1}} {
		if got := plan.windowOf(tc.at); got != tc.want {
			t.Errorf("windowOf(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}
