package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// order lists the resident keys from most to least recently used.
func (c *refCache) order() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for el := c.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*refItem).key)
	}
	return keys
}

// order lists the resident keys from most to least recently used, and fails
// the test when the slab's own bookkeeping does not add up: every slot is
// either on the LRU list (once, linked both ways, indexed under its key) or
// on the free chain (zeroed), and the slab never outgrows the capacity.
func (c *Cache) order(t *testing.T) []string {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	unshipped := 0
	prev := none
	for i := c.head; i != none; i = c.slab[i].next {
		it := &c.slab[i]
		if it.prev != prev {
			t.Fatalf("slot %d: prev = %d, want %d", i, it.prev, prev)
		}
		if at, ok := c.index[it.key]; !ok || at != i {
			t.Fatalf("slot %d holds %q, index says %d (%v)", i, it.key, at, ok)
		}
		if it.served > 0 {
			unshipped++
		}
		keys = append(keys, it.key)
		if len(keys) > len(c.slab) {
			t.Fatal("LRU list loops")
		}
		prev = i
	}
	if c.tail != prev {
		t.Fatalf("tail = %d, want %d", c.tail, prev)
	}
	free := 0
	for i := c.free; i != none; i = c.slab[i].next {
		if it := c.slab[i]; it.key != "" || it.entry != (Entry{}) || it.served != 0 || it.expires != 0 {
			t.Fatalf("free slot %d not zeroed: %+v", i, it)
		}
		if free++; free > len(c.slab) {
			t.Fatal("free chain loops")
		}
	}
	if len(keys) != len(c.index) || len(keys)+free != len(c.slab) || len(c.slab) > c.capacity {
		t.Fatalf("%d on the list + %d free, index %d, slab %d, capacity %d",
			len(keys), free, len(c.index), len(c.slab), c.capacity)
	}
	if unshipped != c.unshipped {
		t.Fatalf("unshipped = %d, %d items carry a count", c.unshipped, unshipped)
	}
	return keys
}

// TestMatchesListImplementation drives the slab cache and the parent's
// container/list cache (reference_test.go) with the same seeded random
// operations under one fake clock that steps onto and across lease ends.
// Every return value, the counters, the epoch, the length and the whole
// eviction order must agree after every step. The serve counts, which the
// reference does not have, are checked against a map kept here: a count
// grows on a live Get/Peek, is claimed by TakeServed, and dies with its
// entry.
func TestMatchesListImplementation(t *testing.T) {
	// A small universe of nested paths, so prefixes match several keys and
	// keys recur often enough for slots to be freed and taken again.
	var keys []string
	for _, a := range []string{"/a", "/b", "/ab"} {
		keys = append(keys, a)
		for _, b := range []string{"/x", "/y", "/xy"} {
			keys = append(keys, a+b, a+b+"/f", a+b+"/g")
		}
	}
	const lease = 10 * time.Second
	leases := []time.Duration{0, -1, time.Nanosecond, time.Second, lease, 3 * lease}
	steps := []time.Duration{0, 0, 0, time.Nanosecond, time.Second - time.Nanosecond,
		time.Second, lease / 2, lease, 4 * lease}

	for _, capacity := range []int{1, 2, 3, 8, 17, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
				now := time.Unix(1_000_000, 0)
				clock := func() time.Time { return now }
				got, err := New(capacity, lease)
				if err != nil {
					t.Fatal(err)
				}
				want, err := newRef(capacity, lease)
				if err != nil {
					t.Fatal(err)
				}
				got.SetClock(clock)
				want.SetClock(clock)
				served := map[string]int64{}
				var claimed map[string]int64 // last TakeServed, for RestoreServed

				for step := 0; step < 4000; step++ {
					now = now.Add(steps[rng.Intn(len(steps))])
					key := keys[rng.Intn(len(keys))]
					e := Entry{Value: step, Version: int64(rng.Intn(4)), Gen: int64(rng.Intn(4))}
					var op string
					var a, b interface{}
					switch r := rng.Intn(100); {
					case r < 15:
						op = "Put " + key
						got.Put(key, e)
						want.Put(key, e)
					case r < 35:
						l := leases[rng.Intn(len(leases))]
						epoch := want.Epoch() - uint64(rng.Intn(8)/7) // one in eight is stale
						op = fmt.Sprintf("PutLeased %s v%d lease %v epoch %d", key, e.Version, l, epoch)
						a, b = got.PutLeased(key, e, l, epoch), want.PutLeased(key, e, l, epoch)
					case r < 55:
						op = "Get " + key
						ge, gok := got.Get(key)
						we, wok := want.Get(key)
						a, b = []interface{}{ge, gok}, []interface{}{we, wok}
						if wok {
							served[key]++
						}
					case r < 75:
						op = "Peek " + key
						ge, glive, gok := got.Peek(key)
						we, wlive, wok := want.Peek(key)
						a, b = []interface{}{ge, glive, gok}, []interface{}{we, wlive, wok}
						if wlive {
							served[key]++
						}
					case r < 85:
						v, l := int64(rng.Intn(4)), leases[rng.Intn(len(leases))]
						op = fmt.Sprintf("RenewFor %s v%d lease %v", key, v, l)
						a, b = got.RenewFor(key, v, l), want.RenewFor(key, v, l)
					case r < 90:
						op = "Invalidate " + key
						got.Invalidate(key)
						want.Invalidate(key)
					case r < 93:
						op = "InvalidatePrefix " + key
						got.InvalidatePrefix(key)
						want.InvalidatePrefix(key)
					case r < 95:
						gen := int64(rng.Intn(4))
						op = fmt.Sprintf("InvalidateOlderGen %d", gen)
						got.InvalidateOlderGen(gen)
						want.InvalidateOlderGen(gen)
					case r < 96:
						op = "InvalidateAll"
						if rng.Intn(4) == 0 {
							op = "InvalidatePrefix /"
							got.InvalidatePrefix("/")
							want.InvalidatePrefix("/")
						} else {
							got.InvalidateAll()
							want.InvalidateAll()
						}
					case r < 98:
						op = "TakeServed"
						claimed = got.TakeServed()
						if len(served) == 0 {
							a, b = claimed == nil, true
						} else {
							a, b = claimed, served
						}
						served = map[string]int64{}
					default:
						op = "RestoreServed"
						got.RestoreServed(claimed)
						for k, n := range claimed {
							if _, resident := want.items[k]; resident {
								served[k] += n
							}
						}
						claimed = nil
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("step %d %s: got %v, list implementation %v", step, op, a, b)
					}
					// A count dies with its entry, however the entry left.
					for k := range served {
						if _, resident := want.items[k]; !resident {
							delete(served, k)
						}
					}
					if g, w := got.order(t), want.order(); !reflect.DeepEqual(g, w) {
						t.Fatalf("step %d %s: LRU order %v, list implementation %v", step, op, g, w)
					}
					if g, w := got.Counters(), want.Counters(); g != w {
						t.Fatalf("step %d %s: counters %+v, list implementation %+v", step, op, g, w)
					}
					if g, w := got.Epoch(), want.Epoch(); g != w {
						t.Fatalf("step %d %s: epoch %d, list implementation %d", step, op, g, w)
					}
					if g, w := got.Len(), want.Len(); g != w {
						t.Fatalf("step %d %s: len %d, list implementation %d", step, op, g, w)
					}
				}
				// What is still unclaimed at the end matches the model too.
				if rest := got.TakeServed(); len(rest) != len(served) || (len(served) > 0 && !reflect.DeepEqual(rest, served)) {
					t.Fatalf("final TakeServed = %v, want %v", rest, served)
				}
			})
		}
	}
}
