package cluster_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"algspec/internal/cluster"
	"algspec/internal/serve"
)

// Cluster scale-out shape: the working set is clusterTerms heavy queue
// terms of the E1 ops-64 shape (internal/serve's
// BenchmarkServeNormalize{Cold,Warm} time one cold and warm), each
// replica's cache holds clusterCache entries, and clusterServerWorkers
// normalization workers are split across the replicas so total compute
// is constant — the only thing 3 replicas add over 1 is partitioned
// cache capacity.
// One replica can hold at most 2/3 of the set and LRU-thrashes under
// the round-robin scan; three replicas each own a third of the keyspace
// and serve nearly every request from cache. That is the scale-out
// claim in miniature: aggregate cache memory grows with N because no
// entry is duplicated.
const (
	clusterTerms         = 320
	clusterCache         = 224
	clusterServerWorkers = 6
	clusterClientWorkers = 8
	clusterPasses        = 4
)

// The partition claim, as shares of the measured requests answered from
// a replica's normal-form cache. Not exactly 1: each replica hashes its
// keys into 16 LRU shards of 14 entries, so one shard can overflow.
const (
	clusterMinHits3 = 0.9 // at least, with 3 replicas
	clusterMaxHits1 = 0.5 // at most, with 1 replica of the same cache size
)

// TestClusterScaleOut is the scale-out tier's partition gate: on a
// working set larger than one replica's cache, 3 replicas answer nearly
// every request from cache, because the router sends each key to the
// one replica that owns it, while 1 replica answers only a minority.
// It reads the replicas' own cache counters (Local.Reconcile), so it
// times nothing: cache hits are what the cluster's throughput gain is
// made of (perfbench's cluster-zipf measures the throughput itself).
func TestClusterScaleOut(t *testing.T) {
	hits1, total1 := measureCacheHits(t, 1)
	hits3, total3 := measureCacheHits(t, 3)
	share1 := float64(hits1) / float64(total1)
	share3 := float64(hits3) / float64(total3)
	t.Logf("answered from cache: 1 replica %d of %d (%.1f%%), 3 replicas %d of %d (%.1f%%)",
		hits1, total1, 100*share1, hits3, total3, 100*share3)
	if share3 < clusterMinHits3 {
		t.Errorf("3 replicas answered only %.1f%% of requests from cache, want >= %.0f%%: the router is not partitioning the keyspace",
			100*share3, 100*clusterMinHits3)
	}
	if share1 > clusterMaxHits1 {
		t.Errorf("1 replica answered %.1f%% of requests from cache, want <= %.0f%%: the working set no longer outgrows one cache",
			100*share1, 100*clusterMaxHits1)
	}
}

// clusterWorkingSet builds n distinct heavy queue terms: every add
// draws its item from a 2-bit chunk of the seed (folded with the
// position), so any two seeds below 2^10 differ in at least one pushed
// item — n genuinely distinct cache keys, each costing a full E1-scale
// normalization cold.
func clusterWorkingSet(n int) []string {
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	terms := make([]string, n)
	for seed := 0; seed < n; seed++ {
		state := "new"
		size := 0
		for i := 0; i < 64; i++ {
			if size > 0 && i%3 == 0 {
				state = "remove(" + state + ")"
				size--
			} else {
				idx := (int(seed>>(2*(i%5)))&3 + i) % len(items)
				state = fmt.Sprintf("add(%s, '%s)", state, items[idx])
				size++
			}
		}
		terms[seed] = "front(" + state + ")"
	}
	return terms
}

// measureCacheHits boots an in-process cluster of n replicas behind the
// consistent-hash router, warms it with one pass over the working set,
// then drives clusterPasses round-robin passes from
// clusterClientWorkers concurrent clients. It returns how many of the
// measured requests the replicas answered from cache, summed over
// shards, and how many they looked up. The cluster shuts down when the
// test ends.
func measureCacheHits(t *testing.T, n int) (hits, total int64) {
	t.Helper()
	cl := startCluster(t, n, serve.Config{Workers: clusterServerWorkers / n, CacheSize: clusterCache})
	terms := clusterWorkingSet(clusterTerms)
	bodies := make([]string, len(terms))
	for i, term := range terms {
		bodies[i] = normBody("Queue", term, "")
	}
	drive := func(requests int) {
		var wg sync.WaitGroup
		errs := make(chan error, clusterClientWorkers)
		var next atomic.Int64
		for w := 0; w < clusterClientWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= requests {
						return
					}
					resp, err := http.Post(cl.URL()+"/v1/normalize", "application/json",
						strings.NewReader(bodies[i%len(bodies)]))
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("cluster scale-out: status %d", resp.StatusCode)
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	drive(len(bodies)) // warmup pass
	hits0, misses0 := cacheCounters(t, cl)
	drive(clusterPasses * len(bodies))
	hits1, misses1 := cacheCounters(t, cl)
	hits = hits1 - hits0
	return hits, hits + misses1 - misses0
}

// cacheCounters sums the replicas' cache hits and misses, failing the
// test if the router's and replicas' request books disagree.
func cacheCounters(t *testing.T, cl *cluster.Local) (hits, misses int64) {
	t.Helper()
	stats, problems, err := cl.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	for _, st := range stats {
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	return hits, misses
}
