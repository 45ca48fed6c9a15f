package cache

// The parent commit's container/list implementation, kept verbatim (types
// renamed: Cache → refCache, item → refItem, New → newRef) as the reference
// TestMatchesListImplementation drives beside the slab implementation.

import (
	"container/list"
	"strings"
	"sync"
	"time"
)

type refItem struct {
	key     string
	entry   Entry
	expires time.Time
	elem    *list.Element
}

// refCache is a leased LRU cache keyed by path. Safe for concurrent use.
type refCache struct {
	mu       sync.Mutex
	capacity int
	lease    time.Duration
	items    map[string]*refItem
	lru      *list.List // front = most recent
	now      func() time.Time

	// epoch advances on every Invalidate* call; PutLeased rejects inserts
	// whose fetch began before the last invalidation, so an in-flight fetch
	// can never resurrect an entry over a newer invalidation.
	epoch uint64

	hits, misses, expired, renewed, invalidations uint64
}

// newRef builds a cache holding at most capacity entries, each valid for the
// given lease.
func newRef(capacity int, lease time.Duration) (*refCache, error) {
	if capacity < 1 {
		return nil, ErrBadCapacity
	}
	if lease <= 0 {
		return nil, ErrBadLease
	}
	return &refCache{
		capacity: capacity,
		lease:    lease,
		items:    make(map[string]*refItem, capacity),
		lru:      list.New(),
		now:      time.Now,
	}, nil
}

// SetClock overrides the time source (tests).
func (c *refCache) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Put stores an entry under a fresh default lease, evicting the least
// recently used entry if full.
func (c *refCache) Put(key string, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, e, c.lease)
}

// Epoch observes the current invalidation epoch. A fetcher reads it before
// issuing the fetch and passes it to PutLeased; any invalidation in between
// makes the insert a no-op.
func (c *refCache) Epoch() uint64 {
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
func (c *refCache) PutLeased(key string, e Entry, lease time.Duration, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return false
	}
	if it, ok := c.items[key]; ok && it.entry.Version > e.Version {
		return false
	}
	if lease <= 0 {
		lease = c.lease
	}
	c.putLocked(key, e, lease)
	return true
}

func (c *refCache) putLocked(key string, e Entry, lease time.Duration) {
	if it, ok := c.items[key]; ok {
		it.entry = e
		it.expires = c.now().Add(lease)
		c.lru.MoveToFront(it.elem)
		return
	}
	for len(c.items) >= c.capacity {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		victim, ok := oldest.Value.(*refItem)
		if !ok {
			break
		}
		c.lru.Remove(oldest)
		delete(c.items, victim.key)
	}
	it := &refItem{key: key, entry: e, expires: c.now().Add(lease)}
	it.elem = c.lru.PushFront(it)
	c.items[key] = it
}

// Get returns a live cached entry. Expired entries are removed and count as
// misses.
func (c *refCache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[key]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	if !it.expires.After(c.now()) {
		c.removeLocked(it)
		c.expired++
		c.misses++
		return Entry{}, false
	}
	c.lru.MoveToFront(it.elem)
	c.hits++
	return it.entry, true
}

// Peek returns the entry even if the lease expired, along with whether the
// lease is still live — the revalidation path: an expired entry's version
// can be compared against the origin instead of refetching the body. A live
// result is a hit; an expired one counts as expired (the entry stays
// resident for revalidation); an absent key is a miss. Peek is an access,
// so it also refreshes the entry's LRU position — before it did neither,
// which both skewed the hit ratio against Get traffic and let the LRU evict
// entries that revalidation was actively using.
func (c *refCache) Peek(key string) (e Entry, live bool, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, found := c.items[key]
	if !found {
		c.misses++
		return Entry{}, false, false
	}
	c.lru.MoveToFront(it.elem)
	if !it.expires.After(c.now()) {
		c.expired++
		return it.entry, false, true
	}
	c.hits++
	return it.entry, true, true
}

// Renew extends the lease of a cached entry whose version the origin just
// confirmed, by the default lease.
func (c *refCache) Renew(key string, version int64) bool {
	return c.RenewFor(key, version, 0)
}

// RenewFor extends the lease of a cached entry whose version the origin
// just confirmed, by an explicit lease (0 = the default). It reports
// whether the key was present with that version. A successful renewal is a
// hit (the cached body was served without a refetch) and counts as renewed;
// a version mismatch or absent key is a miss.
func (c *refCache) RenewFor(key string, version int64, lease time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[key]
	if !ok || it.entry.Version != version {
		c.misses++
		return false
	}
	if lease <= 0 {
		lease = c.lease
	}
	it.expires = c.now().Add(lease)
	c.lru.MoveToFront(it.elem)
	c.hits++
	c.renewed++
	return true
}

// Invalidate removes one key (e.g. after a local update). The invalidation
// epoch advances even when the key is absent: a fetch of it may be in
// flight, and its eventual PutLeased must not land.
func (c *refCache) Invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	if it, ok := c.items[key]; ok {
		c.removeLocked(it)
		c.invalidations++
	}
}

// InvalidatePrefix removes path itself and every cached descendant
// (path + "/..."): the rename case, where the whole subtree's cached names
// die at once. "/" clears everything.
func (c *refCache) InvalidatePrefix(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	prefix := path + "/"
	if path == "/" {
		prefix = "/"
	}
	for key, it := range c.items {
		if key == path || strings.HasPrefix(key, prefix) {
			c.removeLocked(it)
			c.invalidations++
		}
	}
}

// InvalidateOlderGen removes entries whose lease was granted under a
// generation before gen — the migration/GL-re-evaluation case: when the
// observed cluster index version advances, leases keyed to older index
// versions may name entries that moved.
func (c *refCache) InvalidateOlderGen(gen int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	for _, it := range c.items {
		if it.entry.Gen < gen {
			c.removeLocked(it)
			c.invalidations++
		}
	}
}

// InvalidateAll clears the cache (e.g. on an index-version bump).
func (c *refCache) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.invalidations += uint64(len(c.items))
	c.items = make(map[string]*refItem, c.capacity)
	c.lru.Init()
}

// Len returns the number of resident entries (including expired ones not
// yet reaped).
func (c *refCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats reports hit/miss/expiry counters.
func (c *refCache) Stats() (hits, misses, expired uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.expired
}

// Counters snapshots the full counter set.
func (c *refCache) Counters() Counters {
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

func (c *refCache) removeLocked(it *refItem) {
	c.lru.Remove(it.elem)
	delete(c.items, it.key)
}
