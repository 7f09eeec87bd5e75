package cluster

import (
	"fmt"
	"testing"
)

// TestRingDeterminism: the ring is a pure function of the shard count,
// so two routers (or one router restarted) agree on every key.
func TestRingDeterminism(t *testing.T) {
	a, b := newRing(3), newRing(3)
	for k := uint64(0); k < 10_000; k++ {
		key := fnv64(fmt.Sprintf("key-%d", k))
		pa, pb := a.preference(key), b.preference(key)
		if len(pa) != 3 || len(pb) != 3 {
			t.Fatalf("preference list wrong length: %v %v", pa, pb)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("key %d: rings disagree: %v vs %v", k, pa, pb)
			}
		}
	}
}

// TestRingPreferenceDistinct: a preference list names every shard
// exactly once — it is a failover order, not a sample.
func TestRingPreferenceDistinct(t *testing.T) {
	r := newRing(5)
	for k := uint64(0); k < 1000; k++ {
		pref := r.preference(fnv64(fmt.Sprintf("key-%d", k)))
		seen := map[int]bool{}
		for _, s := range pref {
			if seen[s] {
				t.Fatalf("key %d: shard %d appears twice in %v", k, s, pref)
			}
			seen[s] = true
		}
		if len(pref) != 5 {
			t.Fatalf("key %d: preference %v misses shards", k, pref)
		}
	}
}

// TestRingBalance: with virtual nodes, no shard owns a pathological
// share of a uniform keyspace. The bound is loose (consistent hashing
// trades perfect balance for stability) but catches a broken point
// hash, which would silently overload one replica's cache.
func TestRingBalance(t *testing.T) {
	for _, shards := range []int{2, 3, 5} {
		r := newRing(shards)
		counts := make([]int, shards)
		const keys = 20_000
		for k := uint64(0); k < keys; k++ {
			counts[r.preference(fnv64(fmt.Sprintf("key-%d", k)))[0]]++
		}
		fair := keys / shards
		for s, c := range counts {
			if c > fair*3/2 || c < fair/2 {
				t.Errorf("%d shards: shard %d owns %d of %d keys (fair share %d): %v",
					shards, s, c, keys, fair, counts)
			}
		}
	}
}

// TestShardKeyInternsNothing: deriving shard keys for fresh terms leaves
// the router's interners as they were — the key hashes the parsed term,
// so a router that routes unboundedly many fresh terms does not grow
// with them.
func TestShardKeyInternsNothing(t *testing.T) {
	rt, err := NewRouter(Config{ReplicaURLs: []string{"http://127.0.0.1:1"}, HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sys, err := rt.reg.Base().Env.System("Queue")
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Interner().Size()
	for i := 0; i < 500; i++ {
		rt.shardKey("", "Queue", fmt.Sprintf("front(add(add(new, 'a%d), 'b%d))", i, i))
	}
	if after := sys.Interner().Size(); after != before {
		t.Errorf("routing 500 fresh Queue terms grew the router's Queue interner from %d to %d nodes", before, after)
	}
}
