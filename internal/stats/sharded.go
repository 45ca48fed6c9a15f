package stats

import "sync"

// counterShards is the fixed shard fan-out (a power of two so the hash can
// mask instead of divide). Sixteen shards keep independent paths on
// independent locks for any realistic handler concurrency.
const counterShards = 16

// ShardedCounter is a string-keyed counter map sharded across independent
// locks, so concurrent handlers incrementing counters for different keys do
// not convoy on a single mutex. The zero value is ready to use.
//
// It is the MDS's per-path access counter: every served operation
// increments one key on the hot path, the heartbeat drains the whole map
// once per tick, and the snapshot image copies it.
type ShardedCounter struct {
	shards [counterShards]counterShard
	// mu serialises drains. A drain swaps each shard's map for its spare,
	// the map the drain before it took and cleared, so a shard's lock is
	// held only for the swap, never while its map is read, and the Adds
	// after a drain land in a map already grown to a drain's worth of keys.
	mu     sync.Mutex
	spares [counterShards]map[string]int64
}

// counterShard holds one slice of the key space.
type counterShard struct {
	mu     sync.Mutex
	counts map[string]int64 // lazily allocated
}

// shardIndex hashes key with inline FNV-1a (no allocation, no interface).
func shardIndex(key string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h & (counterShards - 1))
}

// Add increments key by n.
func (c *ShardedCounter) Add(key string, n int64) {
	c.shards[shardIndex(key)].add(key, n)
}

// Drain atomically takes and resets every shard, returning the merged
// counts. Increments that race with a drain land wholly in either the
// returned map or the shard's next one — never lost, never double-counted.
func (c *ShardedCounter) Drain() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, c.Len())
	for i := range c.shards {
		taken := c.shards[i].swap(c.spares[i])
		for k, v := range taken {
			out[k] += v
		}
		clear(taken)
		c.spares[i] = taken
	}
	return out
}

// Counts returns a copy of the counts and leaves them in place: the
// snapshot image's read. It reads each shard under its lock.
func (c *ShardedCounter) Counts() map[string]int64 {
	out := make(map[string]int64, c.Len())
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, v := range sh.counts {
			out[k] += v
		}
		sh.mu.Unlock()
	}
	return out
}

// Merge adds counts back into the counter — the undo of a Drain whose
// consumer failed (e.g. an unreachable Monitor), preserving increments that
// landed in between.
func (c *ShardedCounter) Merge(counts map[string]int64) {
	for k, v := range counts {
		c.Add(k, v)
	}
}

// Len reports the number of distinct keys.
func (c *ShardedCounter) Len() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].size()
	}
	return n
}

func (sh *counterShard) add(key string, n int64) {
	sh.mu.Lock()
	if sh.counts == nil {
		sh.counts = make(map[string]int64)
	}
	sh.counts[key] += n
	sh.mu.Unlock()
}

// swap puts m in place of the shard's map and returns the map it held.
func (sh *counterShard) swap(m map[string]int64) map[string]int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.counts
	sh.counts = m
	return old
}

func (sh *counterShard) size() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.counts)
}
