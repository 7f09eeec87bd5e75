package serve

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"

	"algspec/internal/faultinject"
	"algspec/internal/rewrite"
	"algspec/internal/term"
)

// This file holds the server's two shared caches, both bounded sharded
// LRUs:
//
//   - the normal-form cache, keyed on interned-term pointers: every
//     request's input term is canonicalized into its spec's shared
//     interner before the lookup, so structurally equal terms — however
//     they were spelled — land on the same pointer, and pointers from
//     different specs can never collide (each spec's interner hands out
//     distinct allocations);
//   - the parse cache, keyed on (interner, term text), short-circuiting
//     the lexer/parser/sort-checker for hot request strings straight to
//     the canonical pointer.
//
// Entries are immutable values, which is what makes one cache safely
// shared by every request goroutine: readers and writers only exchange
// values under the shard lock. Sharding exists because both caches are
// on the warm path of every request: a single mutex would serialize
// exactly the traffic the caches are meant to accelerate.
const cacheShards = 16

// lruCache is a sharded LRU from comparable keys to immutable values.
// A nil *lruCache is a valid always-miss cache whose methods are
// no-ops, which is how `-cache 0` and the cold benchmark run.
type lruCache[K comparable, V any] struct {
	shards [cacheShards]lruShard[K, V]
	hash   func(K) uintptr
	hits   atomic.Int64
	misses atomic.Int64
	// evict is this cache's poison-eviction fault point: when it fires,
	// Put drops the new entry (and removes any entry already cached
	// under the key) instead of storing, forcing recomputation. One
	// atomic load while disarmed.
	evict *faultinject.Point
}

type lruShard[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	items map[K]*list.Element
	order *list.List // front = most recently used
}

type lruNode[K comparable, V any] struct {
	key K
	val V
}

// newLRU builds a cache holding about capacity entries in total
// (rounded up to a multiple of the shard count); capacity <= 0 returns
// the nil always-miss cache. A shard's map grows with its entries, so a
// cache costs the memory of the keys it holds, not of its capacity.
func newLRU[K comparable, V any](capacity int, hash func(K) uintptr) *lruCache[K, V] {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + cacheShards - 1) / cacheShards
	c := &lruCache[K, V]{hash: hash}
	for i := range c.shards {
		c.shards[i] = lruShard[K, V]{
			cap:   per,
			items: make(map[K]*list.Element),
			order: list.New(),
		}
	}
	return c
}

func (c *lruCache[K, V]) shard(key K) *lruShard[K, V] {
	x := c.hash(key)
	x ^= x >> 12 // fold high bits in before indexing
	return &c.shards[(x>>4)%cacheShards]
}

// Get looks the key up, promoting it to most-recently-used on a hit.
// Every Get counts exactly one hit or miss; /metrics reconciles these
// against request counts, so the accounting must never drop an update.
func (c *lruCache[K, V]) Get(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		c.misses.Add(1)
		return zero, false
	}
	sh.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*lruNode[K, V]).val, true
}

// Put inserts (or refreshes) an entry, evicting the least-recently-used
// entry of the key's shard when the shard is full. Concurrent Puts of
// the same key are idempotent: both writers derived the same value from
// a deterministic computation.
func (c *lruCache[K, V]) Put(key K, val V) {
	if c == nil {
		return
	}
	sh := c.shard(key)
	if c.evict != nil {
		if _, ok := c.evict.Fire(); ok {
			// Poison-eviction fault: lose this write, and take any cached
			// entry for the key with it. Correctness must survive — the
			// cache is an accelerator, never a source of truth.
			sh.mu.Lock()
			if el, found := sh.items[key]; found {
				sh.order.Remove(el)
				delete(sh.items, key)
			}
			sh.mu.Unlock()
			return
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		el.Value.(*lruNode[K, V]).val = val
		sh.order.MoveToFront(el)
		return
	}
	if sh.order.Len() >= sh.cap {
		oldest := sh.order.Back()
		if oldest != nil {
			sh.order.Remove(oldest)
			delete(sh.items, oldest.Value.(*lruNode[K, V]).key)
		}
	}
	sh.items[key] = sh.order.PushFront(&lruNode[K, V]{key: key, val: val})
}

// Len reports the number of live entries across all shards.
func (c *lruCache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}

// Counters returns the cumulative hit and miss counts.
func (c *lruCache[K, V]) Counters() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// cacheEntry is one memoized normalization. Steps records the cold
// run's reduction count and is echoed on warm hits, so a client can
// still see what the term costs.
type cacheEntry struct {
	nf    *term.Term
	steps int
}

// nfKey keys the normal-form cache: the canonical term pointer
// (interned per version env) and the strategy that computes the entry.
// Each strategy keeps its own entries. Guttag's error is strict in
// every operation, so innermost and outermost can disagree even on a
// spec whose certificate proves its own axioms confluent (DESIGN §16).
type nfKey struct {
	t     *term.Term
	strat rewrite.Strategy
}

// nfCache is the normal-form cache: (canonical input term, strategy)
// -> result.
type nfCache = lruCache[nfKey, cacheEntry]

func newNFCache(capacity int) *nfCache {
	c := newLRU[nfKey, cacheEntry](capacity, func(k nfKey) uintptr {
		// Low pointer bits are alignment zeros; the shard fold discards
		// them. The strategy lands above them so the two entries of one
		// term do not collide on a shard slot.
		return uintptr(unsafe.Pointer(k.t)) ^ (uintptr(k.strat) << 4)
	})
	if c != nil {
		c.evict = fpNFEvict
	}
	return c
}

// parseKey keys the parse cache: a term's text and the interner its
// canonical node lives in. Each registry version's environment compiles
// its own System, and so its own interner, per spec, so the interner
// names both the version and the spec — the generation the entry
// belongs to — and a key is built without copying the text.
type parseKey struct {
	in   *term.Interner
	text string
}

// parseCache maps a parseKey to the canonical parsed term.
type parseCache = lruCache[parseKey, *term.Term]

var parseSeed = maphash.MakeSeed()

func newParseCache(capacity int) *parseCache {
	c := newLRU[parseKey, *term.Term](capacity, func(k parseKey) uintptr {
		return uintptr(maphash.String(parseSeed, k.text)) ^ uintptr(unsafe.Pointer(k.in))
	})
	if c != nil {
		c.evict = fpParseEvict
	}
	return c
}
