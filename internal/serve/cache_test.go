package serve

import (
	"fmt"
	"sync"
	"testing"

	"algspec/internal/rewrite"
	"algspec/internal/term"
)

func atoms(n int) []*term.Term {
	in := term.NewInterner()
	out := make([]*term.Term, n)
	for i := range out {
		out[i] = in.Atom(fmt.Sprintf("a%d", i), "Item")
	}
	return out
}

// nk wraps a canonical term in its innermost cache key.
func nk(t *term.Term) nfKey { return nfKey{t: t, strat: rewrite.Innermost} }

func TestCacheHitMissAndCounters(t *testing.T) {
	c := newNFCache(64)
	keys := atoms(3)
	if _, ok := c.Get(nk(keys[0])); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(nk(keys[0]), cacheEntry{nf: keys[1], steps: 7})
	got, ok := c.Get(nk(keys[0]))
	if !ok || got.nf != keys[1] || got.steps != 7 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := c.Get(nk(keys[2])); ok {
		t.Fatal("hit on absent key")
	}
	// The two strategies' entries for one term are distinct keys.
	if _, ok := c.Get(nfKey{t: keys[0], strat: rewrite.Outermost}); ok {
		t.Fatal("an outermost request hit the innermost entry")
	}
	hits, misses := c.Counters()
	if hits != 1 || misses != 3 {
		t.Fatalf("counters = %d/%d, want 1 hit / 3 misses", hits, misses)
	}
}

// Eviction is per shard and LRU order: with single-entry shards, a
// second key landing on the same shard evicts the first; a recently
// Got key survives over a stale one.
func TestCacheEvictsLRUWithinShard(t *testing.T) {
	// Capacity cacheShards means one slot per shard.
	c := newNFCache(cacheShards)
	val := cacheEntry{steps: 1}

	// Find two keys that share a shard.
	keys := atoms(256)
	shardOf := func(k *term.Term) *lruShard[nfKey, cacheEntry] { return c.shard(nk(k)) }
	var a, b *term.Term
outer:
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if shardOf(keys[i]) == shardOf(keys[j]) {
				a, b = keys[i], keys[j]
				break outer
			}
		}
	}
	if a == nil {
		t.Fatal("no two of 256 keys share a shard?")
	}
	c.Put(nk(a), val)
	c.Put(nk(b), val) // shard is full: a is the LRU entry and must go
	if _, ok := c.Get(nk(a)); ok {
		t.Error("evicted entry still present")
	}
	if _, ok := c.Get(nk(b)); !ok {
		t.Error("fresh entry missing")
	}
}

func TestCacheLRUPromotionOnGet(t *testing.T) {
	c := newNFCache(cacheShards * 2) // two slots per shard
	keys := atoms(512)
	sh := c.shard(nk(keys[0]))
	same := []*term.Term{keys[0]}
	for _, k := range keys[1:] {
		if c.shard(nk(k)) == sh {
			same = append(same, k)
			if len(same) == 3 {
				break
			}
		}
	}
	if len(same) < 3 {
		t.Fatal("could not find three keys on one shard")
	}
	val := cacheEntry{steps: 1}
	c.Put(nk(same[0]), val)
	c.Put(nk(same[1]), val)
	c.Get(nk(same[0]))      // promote the older entry
	c.Put(nk(same[2]), val) // evicts same[1], the true LRU
	if _, ok := c.Get(nk(same[0])); !ok {
		t.Error("promoted entry was evicted")
	}
	if _, ok := c.Get(nk(same[1])); ok {
		t.Error("LRU entry survived eviction")
	}
}

// A nil cache (disabled) is safe and always misses without counting.
func TestCacheDisabled(t *testing.T) {
	var c *nfCache
	keys := atoms(1)
	if _, ok := c.Get(nk(keys[0])); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(nk(keys[0]), cacheEntry{})
	if n := c.Len(); n != 0 {
		t.Fatalf("Len = %d", n)
	}
	if h, m := c.Counters(); h != 0 || m != 0 {
		t.Fatalf("counters = %d/%d", h, m)
	}
	if newNFCache(0) != nil || newNFCache(-1) != nil {
		t.Fatal("non-positive capacity must disable the cache")
	}
}

// Concurrent mixed Get/Put on overlapping keys: the race detector
// checks the locking; the invariant checked here is that the cache
// never exceeds its total capacity and counters add up.
func TestCacheConcurrent(t *testing.T) {
	const capacity = 64
	c := newNFCache(capacity)
	keys := atoms(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := nk(keys[(i*7+g*13)%len(keys)])
				if _, ok := c.Get(k); !ok {
					c.Put(k, cacheEntry{nf: k.t, steps: i})
				}
			}
		}(g)
	}
	wg.Wait()
	// Rounded-up per-shard caps allow at most one extra entry per shard.
	if n := c.Len(); n > capacity+cacheShards {
		t.Errorf("cache holds %d entries, cap %d", n, capacity)
	}
	hits, misses := c.Counters()
	if hits+misses != 8*500 {
		t.Errorf("hits %d + misses %d = %d, want %d", hits, misses, hits+misses, 8*500)
	}
}
