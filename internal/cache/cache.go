// Package cache implements the version/timeout/lease entry cache of
// Sec. IV-A2: clients keep recently fetched metadata entries under a lease;
// within the lease an entry may be served locally, after it the entry must
// be revalidated against its origin. Version numbers detect staleness on
// revalidation, and an exact-LRU bound caps memory.
//
// The LRU list is intrusive: entries live in one slab and link to their
// neighbours by slot number, so a hit is one map probe and a few stores
// into one slab element (DESIGN.md §8b).
package cache

import (
	"errors"
	"strings"
	"sync"
	"time"
)

// Errors reported by the cache.
var (
	ErrBadCapacity = errors.New("cache: capacity must be positive")
	ErrBadLease    = errors.New("cache: lease must be positive")
)

// Entry is the cached value: an opaque payload plus its origin version.
type Entry struct {
	// Value is the cached payload. A pointer stored here is stored as is,
	// with no boxing allocation; the holder must not write through it.
	Value interface{}
	// Version is the origin's version number at fetch time.
	Version int64
	// Gen is the generation (cluster index version) the entry's lease was
	// granted under; InvalidateOlderGen drops entries from generations
	// before a given one when the holder observes the partition move.
	Gen int64
}

// Counters is a snapshot of the cache's accounting. Hits include renewed
// leases (the cached body was served without a body refetch); Expired counts
// Peek/Get probes that found the entry past its lease; Invalidations counts
// entries removed by the Invalidate* family.
type Counters struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Expired       uint64 `json:"expired"`
	Renewed       uint64 `json:"renewed"`
	Invalidations uint64 `json:"invalidations"`
}

// none is the absent slot: either end of the LRU list, the end of the free
// chain.
const none int32 = -1

// item is one slab slot: a resident entry linked into the LRU list, or a
// free slot (zeroed, chained through next).
type item struct {
	key     string
	entry   Entry
	expires int64 // lease end, in ns on the cache's clock
	// served counts the lease-live serves (Get/Peek hits) since the last
	// TakeServed: accesses the origin never saw.
	served     int64
	prev, next int32 // towards the most / least recently used neighbour
}

// Cache is a leased LRU cache keyed by path. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	lease    time.Duration
	index    map[string]int32 // key → slab slot
	slab     []item           // grows to capacity, never past it
	head     int32            // most recently used
	tail     int32            // least recently used: the next victim
	free     int32            // first free slot
	clock    func() int64     // ns since an arbitrary fixed instant

	// epoch advances on every Invalidate* call; PutLeased rejects inserts
	// whose fetch began before the last invalidation, so an in-flight fetch
	// can never resurrect an entry over a newer invalidation.
	epoch uint64

	// unshipped is the number of resident items with served > 0.
	unshipped int

	hits, misses, expired, renewed, invalidations uint64
}

// New builds a cache holding at most capacity entries, each valid for the
// given lease.
func New(capacity int, lease time.Duration) (*Cache, error) {
	if capacity < 1 {
		return nil, ErrBadCapacity
	}
	if lease <= 0 {
		return nil, ErrBadLease
	}
	// time.Since of an instant that carries a monotonic reading is a single
	// monotonic clock read, and immune to wall-clock steps.
	base := time.Now()
	return &Cache{
		capacity: capacity,
		lease:    lease,
		index:    make(map[string]int32, capacity),
		head:     none,
		tail:     none,
		free:     none,
		clock:    func() int64 { return int64(time.Since(base)) },
	}, nil
}

// SetClock overrides the time source (tests).
func (c *Cache) SetClock(now func() time.Time) {
	base := now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock = func() int64 { return int64(now().Sub(base)) }
}

// Put stores an entry under a fresh default lease, evicting the least
// recently used entry if full.
func (c *Cache) Put(key string, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, resident := c.index[key]
	c.storeLocked(i, resident, key, e, c.lease)
}

// Epoch observes the current invalidation epoch. A fetcher reads it before
// issuing the fetch and passes it to PutLeased; any invalidation in between
// makes the insert a no-op.
func (c *Cache) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// PutLeased stores an entry under an explicit lease (0 = the default),
// guarded two ways against resurrecting stale state: the insert is dropped
// when any invalidation happened since epoch was observed (the fetched body
// may predate it), or when a resident entry for the key carries a newer
// version (a concurrent fetch already landed fresher data — versions only
// grow at the origin). It reports whether the entry was stored.
func (c *Cache) PutLeased(key string, e Entry, lease time.Duration, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return false
	}
	i, resident := c.index[key]
	if resident && c.slab[i].entry.Version > e.Version {
		return false
	}
	if lease <= 0 {
		lease = c.lease
	}
	c.storeLocked(i, resident, key, e, lease)
	return true
}

// storeLocked writes e under key at the front of the LRU list: in place when
// the caller's probe found the key resident in slot i, else in a free slot,
// a fresh one, or — at capacity — the least recently used entry's.
func (c *Cache) storeLocked(i int32, resident bool, key string, e Entry, lease time.Duration) {
	expires := c.clock() + int64(lease)
	if resident {
		c.slab[i].entry = e
		c.slab[i].expires = expires
		c.touchLocked(i)
		return
	}
	if len(c.index) >= c.capacity {
		c.removeLocked(c.tail)
	}
	if c.free != none {
		i = c.free
		c.free = c.slab[i].next
	} else {
		i = int32(len(c.slab))
		c.slab = append(c.slab, item{})
	}
	c.slab[i] = item{key: key, entry: e, expires: expires, prev: none, next: none}
	c.pushFrontLocked(i)
	c.index[key] = i
}

// Get returns a live cached entry. Expired entries are removed and count as
// misses.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	if c.slab[i].expires <= c.clock() {
		c.removeLocked(i)
		c.expired++
		c.misses++
		return Entry{}, false
	}
	c.touchLocked(i)
	return c.serveLocked(i), true
}

// Peek returns the entry even if the lease expired, along with whether the
// lease is still live — the revalidation path: an expired entry's version
// can be compared against the origin instead of refetching the body. A live
// result is a hit; an expired one counts as expired (the entry stays
// resident for revalidation); an absent key is a miss. Peek is an access,
// so it also refreshes the entry's LRU position — before it did neither,
// which both skewed the hit ratio against Get traffic and let the LRU evict
// entries that revalidation was actively using.
func (c *Cache) Peek(key string) (e Entry, live bool, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, found := c.index[key]
	if !found {
		c.misses++
		return Entry{}, false, false
	}
	c.touchLocked(i)
	if c.slab[i].expires <= c.clock() {
		c.expired++
		return c.slab[i].entry, false, true
	}
	return c.serveLocked(i), true, true
}

// serveLocked accounts one lease-live serve of slot i and returns its entry.
func (c *Cache) serveLocked(i int32) Entry {
	it := &c.slab[i]
	c.hits++
	if it.served == 0 {
		c.unshipped++
	}
	it.served++
	return it.entry
}

// Renew extends the lease of a cached entry whose version the origin just
// confirmed, by the default lease.
func (c *Cache) Renew(key string, version int64) bool {
	return c.RenewFor(key, version, 0)
}

// RenewFor extends the lease of a cached entry whose version the origin
// just confirmed, by an explicit lease (0 = the default). It reports
// whether the key was present with that version. A successful renewal is a
// hit (the cached body was served without a refetch) and counts as renewed;
// a version mismatch or absent key is a miss. It is not a serve in
// TakeServed's sense: the origin saw the probe that confirmed the version.
func (c *Cache) RenewFor(key string, version int64, lease time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok || c.slab[i].entry.Version != version {
		c.misses++
		return false
	}
	if lease <= 0 {
		lease = c.lease
	}
	c.slab[i].expires = c.clock() + int64(lease)
	c.touchLocked(i)
	c.hits++
	c.renewed++
	return true
}

// TakeServed claims the per-key counts of lease-live serves since the last
// call (nil when there were none) and zeroes them. The counts live in the
// resident items, so an entry evicted or invalidated in between takes its
// count with it: memory stays bounded by the capacity, and what is lost is
// the tail of the distribution (the LRU victim is the coldest entry).
func (c *Cache) TakeServed() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.unshipped == 0 {
		return nil
	}
	// Every serve moved its item to the front, so the items served since the
	// last call sit among the most recently used; only counts put back by
	// RestoreServed can lie deeper.
	served := make(map[string]int64, c.unshipped)
	for i := c.head; c.unshipped > 0; i = c.slab[i].next {
		if it := &c.slab[i]; it.served > 0 {
			served[it.key] = it.served
			it.served = 0
			c.unshipped--
		}
	}
	return served
}

// RestoreServed adds the counts a TakeServed claimed back after a failed
// ship, to the keys still resident; the rest are dropped, as eviction would
// have dropped them.
func (c *Cache) RestoreServed(served map[string]int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, n := range served {
		i, ok := c.index[key]
		if !ok {
			continue
		}
		if c.slab[i].served == 0 {
			c.unshipped++
		}
		c.slab[i].served += n
	}
}

// Invalidate removes one key (e.g. after a local update). The invalidation
// epoch advances even when the key is absent: a fetch of it may be in
// flight, and its eventual PutLeased must not land.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	if i, ok := c.index[key]; ok {
		c.removeLocked(i)
		c.invalidations++
	}
}

// InvalidatePrefix removes path itself and every cached descendant
// (path + "/..."): the rename case, where the whole subtree's cached names
// die at once. "/" clears everything.
func (c *Cache) InvalidatePrefix(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	prefix := path + "/"
	if path == "/" {
		prefix = "/"
	}
	for key, i := range c.index {
		if key == path || strings.HasPrefix(key, prefix) {
			c.removeLocked(i)
			c.invalidations++
		}
	}
}

// InvalidateOlderGen removes entries whose lease was granted under a
// generation before gen — the migration/GL-re-evaluation case: when the
// observed cluster index version advances, leases keyed to older index
// versions may name entries that moved.
func (c *Cache) InvalidateOlderGen(gen int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	for _, i := range c.index {
		if c.slab[i].entry.Gen < gen {
			c.removeLocked(i)
			c.invalidations++
		}
	}
}

// InvalidateAll clears the cache (e.g. on an index-version bump).
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.invalidations += uint64(len(c.index))
	clear(c.index)
	clear(c.slab) // drop the keys and payloads the slots still reference
	c.slab = c.slab[:0]
	c.head, c.tail, c.free = none, none, none
	c.unshipped = 0
}

// Len returns the number of resident entries (including expired ones not
// yet reaped).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Stats reports hit/miss/expiry counters.
func (c *Cache) Stats() (hits, misses, expired uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.expired
}

// Counters snapshots the full counter set.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{
		Hits:          c.hits,
		Misses:        c.misses,
		Expired:       c.expired,
		Renewed:       c.renewed,
		Invalidations: c.invalidations,
	}
}

// touchLocked moves slot i to the front of the LRU list.
func (c *Cache) touchLocked(i int32) {
	if c.head == i {
		return
	}
	c.unlinkLocked(i)
	c.pushFrontLocked(i)
}

func (c *Cache) pushFrontLocked(i int32) {
	c.slab[i].prev, c.slab[i].next = none, c.head
	if c.head != none {
		c.slab[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *Cache) unlinkLocked(i int32) {
	prev, next := c.slab[i].prev, c.slab[i].next
	if prev != none {
		c.slab[prev].next = next
	} else {
		c.head = next
	}
	if next != none {
		c.slab[next].prev = prev
	} else {
		c.tail = prev
	}
}

// removeLocked drops slot i's entry — its unshipped serve count with it —
// and chains the zeroed slot onto the free list.
func (c *Cache) removeLocked(i int32) {
	c.unlinkLocked(i)
	delete(c.index, c.slab[i].key)
	if c.slab[i].served > 0 {
		c.unshipped--
	}
	c.slab[i] = item{next: c.free}
	c.free = i
}
