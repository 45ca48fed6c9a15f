package cache

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func newTest(t *testing.T, capacity int) (*Cache, *time.Time) {
	t.Helper()
	c, err := New(capacity, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	return c, &now
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, time.Second); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("want ErrBadCapacity, got %v", err)
	}
	if _, err := New(1, 0); !errors.Is(err, ErrBadLease) {
		t.Errorf("want ErrBadLease, got %v", err)
	}
}

func TestPutGet(t *testing.T) {
	c, _ := newTest(t, 4)
	c.Put("/a", Entry{Value: "va", Version: 1})
	e, ok := c.Get("/a")
	if !ok || e.Value != "va" || e.Version != 1 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := c.Get("/missing"); ok {
		t.Error("missing key hit")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses", hits, misses)
	}
}

func TestLeaseExpiry(t *testing.T) {
	c, now := newTest(t, 4)
	c.Put("/a", Entry{Version: 1})
	*now = now.Add(11 * time.Second)
	if _, ok := c.Get("/a"); ok {
		t.Error("expired entry served")
	}
	_, _, expired := c.Stats()
	if expired != 1 {
		t.Errorf("expired counter = %d", expired)
	}
	if c.Len() != 0 {
		t.Error("expired entry not reaped on Get")
	}
}

func TestPeekAndRenew(t *testing.T) {
	c, now := newTest(t, 4)
	c.Put("/a", Entry{Version: 7})
	*now = now.Add(11 * time.Second)
	e, live, ok := c.Peek("/a")
	if !ok || live || e.Version != 7 {
		t.Fatalf("Peek = %+v live=%v ok=%v", e, live, ok)
	}
	// Origin confirms version 7 is still current: lease renews.
	if !c.Renew("/a", 7) {
		t.Fatal("Renew rejected matching version")
	}
	if _, ok := c.Get("/a"); !ok {
		t.Error("renewed entry not served")
	}
	if c.Renew("/a", 8) {
		t.Error("Renew accepted wrong version")
	}
	if c.Renew("/missing", 1) {
		t.Error("Renew accepted missing key")
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := newTest(t, 3)
	for i := 0; i < 3; i++ {
		c.Put("/k"+strconv.Itoa(i), Entry{Version: int64(i)})
	}
	// Touch /k0 so /k1 becomes the LRU victim.
	if _, ok := c.Get("/k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("/k3", Entry{Version: 3})
	if _, ok := c.Get("/k1"); ok {
		t.Error("LRU victim /k1 survived")
	}
	for _, k := range []string{"/k0", "/k2", "/k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
}

func TestPutUpdatesInPlace(t *testing.T) {
	c, _ := newTest(t, 2)
	c.Put("/a", Entry{Version: 1})
	c.Put("/a", Entry{Version: 2})
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	e, _ := c.Get("/a")
	if e.Version != 2 {
		t.Errorf("Version = %d", e.Version)
	}
}

func TestInvalidate(t *testing.T) {
	c, _ := newTest(t, 4)
	c.Put("/a", Entry{})
	c.Put("/b", Entry{})
	c.Invalidate("/a")
	if _, ok := c.Get("/a"); ok {
		t.Error("invalidated entry served")
	}
	if _, ok := c.Get("/b"); !ok {
		t.Error("unrelated entry lost")
	}
	c.InvalidateAll()
	if c.Len() != 0 {
		t.Error("InvalidateAll left entries")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	prop := func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c, err := New(capacity, time.Minute)
		if err != nil {
			return false
		}
		for _, k := range keys {
			c.Put(fmt.Sprintf("/k%d", k%64), Entry{Version: int64(k)})
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(64, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var claimed atomic.Int64 // serves TakeServed handed out and kept
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := "/k" + strconv.Itoa(i%100)
				c.Put(key, Entry{Version: int64(i)})
				c.Get(key)
				if i%50 == 0 {
					c.Invalidate(key)
				}
				if i%25 == g {
					served := c.TakeServed()
					if i%2 == 0 {
						c.RestoreServed(served) // a ship that failed
						continue
					}
					for _, n := range served {
						claimed.Add(n)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
	// Serves are claimed at most once: evictions lose some, nothing mints any.
	for _, n := range c.TakeServed() {
		claimed.Add(n)
	}
	if hits := c.Counters().Hits; claimed.Load() > int64(hits) || claimed.Load() == 0 {
		t.Errorf("claimed %d serves of %d hits", claimed.Load(), hits)
	}
}

func TestPeekRenewStats(t *testing.T) {
	c, err := New(4, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	c.SetClock(func() time.Time { return now })

	c.Put("/a", Entry{Version: 7})

	if _, _, ok := c.Peek("/missing"); ok {
		t.Fatal("Peek of absent key succeeded")
	}
	if _, live, ok := c.Peek("/a"); !ok || !live {
		t.Fatalf("Peek(/a) live=%v ok=%v", live, ok)
	}
	if hits, misses, expired := c.Stats(); hits != 1 || misses != 1 || expired != 0 {
		t.Fatalf("after peeks: hits=%d misses=%d expired=%d, want 1/1/0", hits, misses, expired)
	}

	now = now.Add(11 * time.Second) // lease lapses
	if _, live, ok := c.Peek("/a"); !ok || live {
		t.Fatalf("expired Peek(/a) live=%v ok=%v, want live=false ok=true", live, ok)
	}
	if _, _, expired := c.Stats(); expired != 1 {
		t.Fatalf("expired counter = %d, want 1", expired)
	}

	if !c.Renew("/a", 7) {
		t.Fatal("Renew with matching version failed")
	}
	if c.Renew("/a", 8) {
		t.Fatal("Renew with stale version succeeded")
	}
	if c.Renew("/missing", 1) {
		t.Fatal("Renew of absent key succeeded")
	}
	hits, misses, expired := c.Stats()
	if hits != 2 || misses != 3 || expired != 1 {
		t.Fatalf("final stats hits=%d misses=%d expired=%d, want 2/3/1", hits, misses, expired)
	}
}

func TestInvalidatePrefix(t *testing.T) {
	c, _ := newTest(t, 8)
	for _, k := range []string{"/a", "/a/b", "/a/b/c", "/ab", "/z"} {
		c.Put(k, Entry{Version: 1})
	}
	c.InvalidatePrefix("/a")
	for _, k := range []string{"/a", "/a/b", "/a/b/c"} {
		if _, _, ok := c.Peek(k); ok {
			t.Errorf("%s survived InvalidatePrefix(/a)", k)
		}
	}
	// A sibling that merely shares the byte prefix is not a descendant.
	for _, k := range []string{"/ab", "/z"} {
		if _, _, ok := c.Peek(k); !ok {
			t.Errorf("%s lost to InvalidatePrefix(/a)", k)
		}
	}
	if got := c.Counters().Invalidations; got != 3 {
		t.Errorf("invalidations = %d, want 3", got)
	}
	c.InvalidatePrefix("/")
	if c.Len() != 0 {
		t.Errorf("InvalidatePrefix(/) left %d entries", c.Len())
	}
}

func TestInvalidateOlderGen(t *testing.T) {
	c, _ := newTest(t, 8)
	c.Put("/old", Entry{Version: 1, Gen: 3})
	c.Put("/cur", Entry{Version: 1, Gen: 5})
	c.InvalidateOlderGen(5)
	if _, _, ok := c.Peek("/old"); ok {
		t.Error("gen-3 entry survived InvalidateOlderGen(5)")
	}
	if _, _, ok := c.Peek("/cur"); !ok {
		t.Error("gen-5 entry dropped by InvalidateOlderGen(5)")
	}
}

func TestPutLeasedEpochGuard(t *testing.T) {
	c, _ := newTest(t, 4)
	epoch := c.Epoch()
	// An invalidation lands between the fetch start and its insert: the
	// insert must not resurrect the (possibly stale) body — even though the
	// invalidated key was never resident.
	c.Invalidate("/a")
	if c.PutLeased("/a", Entry{Version: 1}, 0, epoch) {
		t.Fatal("PutLeased landed across an invalidation")
	}
	if _, _, ok := c.Peek("/a"); ok {
		t.Fatal("stale insert resident")
	}
	// A fetch begun after the invalidation inserts normally.
	if !c.PutLeased("/a", Entry{Version: 1}, 0, c.Epoch()) {
		t.Fatal("PutLeased with current epoch rejected")
	}
}

func TestPutLeasedVersionGuard(t *testing.T) {
	c, _ := newTest(t, 4)
	epoch := c.Epoch()
	c.Put("/a", Entry{Version: 5})
	// A slower fetch carrying an older body loses to the resident entry.
	if c.PutLeased("/a", Entry{Version: 4}, 0, epoch) {
		t.Fatal("older version overwrote newer resident entry")
	}
	if e, _ := c.Get("/a"); e.Version != 5 {
		t.Fatalf("resident version = %d, want 5", e.Version)
	}
	// Same or newer versions land (same version: lease refresh).
	if !c.PutLeased("/a", Entry{Version: 5}, 0, epoch) {
		t.Fatal("equal version rejected")
	}
	if !c.PutLeased("/a", Entry{Version: 6}, 0, epoch) {
		t.Fatal("newer version rejected")
	}
}

func TestPutLeasedExplicitLease(t *testing.T) {
	c, now := newTest(t, 4) // default lease 10s
	if !c.PutLeased("/short", Entry{Version: 1}, time.Second, c.Epoch()) {
		t.Fatal("insert rejected")
	}
	*now = now.Add(2 * time.Second)
	if _, live, _ := c.Peek("/short"); live {
		t.Error("1s lease still live after 2s")
	}
	if !c.PutLeased("/dflt", Entry{Version: 1}, 0, c.Epoch()) {
		t.Fatal("insert rejected")
	}
	*now = now.Add(2 * time.Second)
	if _, live, _ := c.Peek("/dflt"); !live {
		t.Error("default lease expired after 2s")
	}
}

func TestRenewForExplicitLease(t *testing.T) {
	c, now := newTest(t, 4)
	c.Put("/a", Entry{Version: 7})
	*now = now.Add(11 * time.Second)
	if !c.RenewFor("/a", 7, time.Minute) {
		t.Fatal("RenewFor rejected matching version")
	}
	*now = now.Add(30 * time.Second)
	if _, live, _ := c.Peek("/a"); !live {
		t.Error("minute-long renewal expired after 30s")
	}
	cc := c.Counters()
	if cc.Renewed != 1 {
		t.Errorf("renewed = %d, want 1", cc.Renewed)
	}
	if cc.Hits < 2 { // the renewal plus the live Peek
		t.Errorf("hits = %d, want >= 2", cc.Hits)
	}
}

func TestPeekTouchesLRU(t *testing.T) {
	c, err := New(2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("/old", Entry{Version: 1})
	c.Put("/new", Entry{Version: 2})
	// Peek must refresh /old's recency: the next insert evicts /new instead.
	if _, _, ok := c.Peek("/old"); !ok {
		t.Fatal("Peek(/old) missed")
	}
	c.Put("/third", Entry{Version: 3})
	if _, _, ok := c.Peek("/old"); !ok {
		t.Fatal("/old was evicted despite Peek touch")
	}
	if _, _, ok := c.Peek("/new"); ok {
		t.Fatal("/new survived eviction; Peek did not refresh LRU order")
	}
}
