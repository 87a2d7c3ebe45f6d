package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mochy/internal/testutil"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	hits, misses := c.Counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("counters = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // a is now most recently used
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %s evicted, want kept", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestCacheCostWeightedEviction: under capacity pressure the cache drops
// the cheapest-to-recompute entry in the scan window, not blindly the least
// recently used one — a cheap sampled estimate goes before an expensive
// exact count even when the exact count is older.
func TestCacheCostWeightedEviction(t *testing.T) {
	c := NewCache(3)
	c.PutCost("exact-old", 1, 0, time.Hour)      // oldest, expensive
	c.PutCost("cheap", 2, 0, 2*time.Millisecond) // cheap sampled result
	c.PutCost("exact-new", 3, 0, 30*time.Minute) // expensive
	c.PutCost("incoming", 4, 0, 10*time.Millisecond)

	if _, ok := c.Get("cheap"); ok {
		t.Fatal("cheap entry survived eviction over expensive exact results")
	}
	for _, k := range []string{"exact-old", "exact-new", "incoming"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("expensive/new entry %q was evicted before the cheap one", k)
		}
	}
	if got := c.Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
}

// TestCacheEvictionPrefersExpired: an already-expired entry in the scan
// window is reclaimed first regardless of its recorded cost.
func TestCacheEvictionPrefersExpired(t *testing.T) {
	c := NewCache(2)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.PutCost("expiring-expensive", 1, time.Second, time.Hour)
	c.PutCost("cheap", 2, 0, time.Millisecond)
	now = now.Add(2 * time.Second)
	c.PutCost("incoming", 3, 0, 0)
	if _, ok := c.Get("cheap"); !ok {
		t.Fatal("live cheap entry evicted while an expired entry remained")
	}
	if _, ok := c.Get("incoming"); !ok {
		t.Fatal("incoming entry missing")
	}
}

func TestCachePutUpdatesExisting(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1)
	c.Put("a", 2)
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("Get(a) = %v, want 2 after overwrite", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%32)
				c.Put(key, i)
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("Len = %d exceeds capacity 16", c.Len())
	}
}

func TestFlightGroupCollapsesConcurrentCalls(t *testing.T) {
	g := newFlightGroup()
	var calls int
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		g.Do("k", func() (any, error) {
			close(started)
			calls++
			<-gate
			return 42, nil
		})
	}()
	<-started

	const waiters = 4
	results := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			v, err, shared := g.Do("k", func() (any, error) {
				t.Error("fn ran for a waiter that should share the flight")
				return nil, nil
			})
			if err != nil || !shared {
				t.Errorf("Do = err %v, shared %v; want nil, true", err, shared)
			}
			results <- v.(int)
		}()
	}
	// Open the gate only once every waiter is parked on the flight: a waiter
	// arriving after the leader finished would start a flight of its own.
	testutil.Eventually(t, 5*time.Second, func() bool { return g.waiting("k") == waiters }, "waiters never parked on the flight")
	close(gate)
	for i := 0; i < waiters; i++ {
		if v := <-results; v != 42 {
			t.Fatalf("shared result = %d, want 42", v)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

func TestCacheTTL(t *testing.T) {
	c := NewCache(8)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	c.PutTTL("sampled", 1, time.Minute)
	c.Put("exact", 2)
	if _, ok := c.Get("sampled"); !ok {
		t.Fatal("fresh TTL entry missed")
	}

	now = now.Add(30 * time.Second)
	if _, ok := c.Get("sampled"); !ok {
		t.Fatal("entry expired before its TTL")
	}

	now = now.Add(31 * time.Second)
	if _, ok := c.Get("sampled"); ok {
		t.Fatal("entry served after its TTL")
	}
	if _, ok := c.Get("exact"); !ok {
		t.Fatal("no-TTL entry expired")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (expired entry collected)", c.Len())
	}

	// Overwriting with a new TTL restarts the clock.
	c.PutTTL("sampled", 3, time.Minute)
	now = now.Add(59 * time.Second)
	if v, ok := c.Get("sampled"); !ok || v.(int) != 3 {
		t.Fatalf("re-put entry = %v, %v", v, ok)
	}

	// PutTTL with ttl <= 0 stores without expiry.
	c.PutTTL("forever", 4, 0)
	now = now.Add(1000 * time.Hour)
	if _, ok := c.Get("forever"); !ok {
		t.Fatal("ttl<=0 entry expired")
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache(8)
	c.Put("count|a#1|exact", 1)
	c.Put("count|a#2|exact", 2)
	c.Put("profile|a#2|n=3|seed=0", 3)
	c.Put("count|b#1|exact", 4)

	n := c.Purge(func(key string) bool { return strings.HasPrefix(key, "count|a#") })
	if n != 2 {
		t.Fatalf("purged %d, want 2", n)
	}
	if _, ok := c.Get("count|b#1|exact"); !ok {
		t.Fatal("purge removed an unrelated entry")
	}
	if _, ok := c.Get("count|a#1|exact"); ok {
		t.Fatal("purged entry still served")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestGraphKeyGen(t *testing.T) {
	cases := []struct {
		key, name string
		gen       uint64
		ok        bool
	}{
		{"g#7|count|exact", "g", 7, true},
		{"g#12|null_model|m=chung-lu|n=3|seed=0|spi=0", "g", 12, true},
		{"g#7|count|exact", "other", 0, false},
		// A graph named "a" must not match keys of a graph named "a#1".
		{"a#1#2|count|exact", "a", 0, false},
		{"a#1#2|count|exact", "a#1", 2, true},
		{"bogus|g#7|count|exact", "g", 0, false},
	}
	for _, tc := range cases {
		gen, ok := graphKeyGen(tc.key, tc.name)
		if gen != tc.gen || ok != tc.ok {
			t.Errorf("graphKeyGen(%q, %q) = %d, %v; want %d, %v", tc.key, tc.name, gen, ok, tc.gen, tc.ok)
		}
	}
}
