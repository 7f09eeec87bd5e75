// Package cluster is the scale-out tier over adt serve (DESIGN §13): a
// thin HTTP router that consistent-hashes every normalize request's
// (version, interned term) shard key onto N replica shards, so each
// normal form lives on exactly one replica's cache and aggregate cache
// capacity grows linearly with the replica count — no duplicated cache
// memory. The router health-checks its replicas, retries a bounded
// number of times down the key's preference list on shard failure
// (falling back to any-replica compute: every replica holds the full
// spec registry, only the cache is partitioned), and exposes per-shard
// forwarding counters that reconcile exactly against each replica's own
// request counters.
package cluster

import (
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over shard indices. Each shard owns
// ringVNodes points on the ring, which evens out the keyspace split; a key
// is served by the first point at or after its hash, wrapping around.
// The point positions are pure FNV-1a of "shard-i/vnode-j", so every
// router instance — across processes and restarts — derives the same
// ring for the same shard count.
type ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// ringVNodes is the virtual-node count per shard.
const ringVNodes = 64

func newRing(shards int) *ring {
	r := &ring{shards: shards}
	for s := 0; s < shards; s++ {
		for v := 0; v < ringVNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  fnv64(fmt.Sprintf("shard-%d/vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// preference returns the key's shard order: the owning shard first,
// then each distinct successor around the ring. A router that cannot
// reach the owner walks this list, so failover targets are as stable as
// the ring itself.
func (r *ring) preference(key uint64) []int {
	out := make([]int, 0, r.shards)
	seen := make(map[int]bool, r.shards)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for i := 0; len(out) < r.shards && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// fnv64 is FNV-1a over a string, finished with a full avalanche. Raw
// FNV of near-identical strings ("shard-0/vnode-1", "shard-0/vnode-2")
// clusters in the high bits, and ring ownership is decided by exactly
// those bits — without the finalizer one shard ends up owning over half
// the keyspace.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche that spreads
// any input difference across all 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
