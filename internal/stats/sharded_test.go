package stats

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestShardedCounterBasics(t *testing.T) {
	var c ShardedCounter
	c.Add("/a", 1)
	c.Add("/a", 2)
	c.Add("/b", 5)
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	got := c.Drain()
	if got["/a"] != 3 || got["/b"] != 5 || len(got) != 2 {
		t.Errorf("Drain = %v", got)
	}
	if got := c.Len(); got != 0 {
		t.Errorf("Len after drain = %d, want 0", got)
	}
	if got := c.Drain(); len(got) != 0 {
		t.Errorf("second Drain = %v, want empty", got)
	}
}

func TestShardedCounterMergeRestoresDrain(t *testing.T) {
	var c ShardedCounter
	c.Add("/a", 4)
	taken := c.Drain()
	c.Add("/a", 1) // a new increment lands while the sample is out
	c.Merge(taken) // the consumer failed; put the sample back
	got := c.Drain()
	if got["/a"] != 5 {
		t.Errorf("after merge, /a = %d, want 5", got["/a"])
	}
}

// TestShardedCounterConcurrent hammers adds from many goroutines against
// concurrent drains and asserts no increment is lost or double-counted —
// the exact guarantee heartbeatOnce/restoreSample rely on.
func TestShardedCounterConcurrent(t *testing.T) {
	var c ShardedCounter
	const (
		workers = 8
		perKey  = 500
		keys    = 20
	)
	var wg sync.WaitGroup
	drained := make(chan map[string]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				for k := 0; k < keys; k++ {
					c.Add(fmt.Sprintf("/dir/%d", k), 1)
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			drained <- c.Drain()
		}()
	}
	wg.Wait()
	close(drained)
	total := make(map[string]int64)
	for m := range drained {
		for k, v := range m {
			total[k] += v
		}
	}
	for k, v := range c.Drain() {
		total[k] += v
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("/dir/%d", k)
		if total[key] != workers*perKey {
			t.Errorf("%s = %d, want %d", key, total[key], workers*perKey)
		}
	}
}

// Drain budget: a drain of drainKeys keys, spread over every shard, may make
// drainAllocsBudget allocations of drainBytesBudget bytes in all: the merged
// map, sized once. Before the map was presized and the shards kept theirs, a
// drain of 1,500 keys made 21 allocations of about 109 KB, and the next
// round of Adds grew all 16 shard maps again.
const (
	drainKeys         = 1500
	drainAllocsBudget = 8
	drainBytesBudget  = 80_000
)

// TestShardedCounterDrainAllocs holds a drain, and the round of Adds after
// it, to their budget, and Counts to the drain's.
func TestShardedCounterDrainAllocs(t *testing.T) {
	var c ShardedCounter
	keys := make([]string, drainKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("/d%d/f%d", i%37, i)
	}
	fill := func() {
		for _, k := range keys {
			c.Add(k, 1)
		}
	}
	measure := func(f func()) (size, allocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	// Two rounds grow both of each shard's maps; the third round's Adds
	// land in the map the first drain took and cleared.
	for range 2 {
		fill()
		_ = c.Drain()
	}
	if _, allocs := measure(fill); allocs != 0 {
		t.Errorf("Adds into drained shards made %d allocations, want 0", allocs)
	}
	for _, read := range []struct {
		name string
		fn   func() map[string]int64
	}{{"Counts", c.Counts}, {"Drain", c.Drain}} {
		var got map[string]int64
		size, allocs := measure(func() { got = read.fn() })
		if len(got) != drainKeys {
			t.Fatalf("%s returned %d keys, want %d", read.name, len(got), drainKeys)
		}
		t.Logf("%s of %d keys: %d bytes in %d allocations", read.name, drainKeys, size, allocs)
		if allocs > drainAllocsBudget || size > drainBytesBudget {
			t.Errorf("%s of %d keys: %d bytes in %d allocations, budget %d in %d", read.name, drainKeys, size, allocs, drainBytesBudget, drainAllocsBudget)
		}
	}
	if got := c.Len(); got != 0 {
		t.Errorf("Len after Drain = %d, want 0", got)
	}
}
