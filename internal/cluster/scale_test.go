package cluster_test

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"algspec/internal/serve"
)

// clusterScaleFactor is the cluster's scale-out claim: partitioning the
// keyspace over 3 replicas must buy at least this many times the
// aggregate RPS of 1 replica, in the median of clusterRounds
// interleaved rounds.
const clusterScaleFactor = 2

// Cluster benchmark shape: the working set is clusterTerms heavy queue
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
	// clusterRounds interleaved 1- and 3-replica measurements are taken
	// and the median round's ratio is reported: one short reading swings
	// with whatever else the machine is doing, the median does not.
	clusterRounds = 5
)

// TestClusterScaleOut is the timing-ratio gate for the scale-out tier:
// 3 replicas must sustain at least clusterScaleFactor times the
// aggregate RPS of 1 on a working set larger than one replica's cache.
func TestClusterScaleOut(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation distorts the 1-vs-3 replica ratio")
	}
	if testing.Short() {
		t.Skip("benchmark-backed gate skipped in -short mode")
	}
	ns1, ns3 := measureClusterScale(t)
	scale := ns1 / ns3
	t.Logf("median round: %.0f -> %.0f rps, %.2fx", 1e9/ns1, 1e9/ns3, scale)
	if scale < clusterScaleFactor {
		t.Errorf("3 replicas sustain only %.2fx the aggregate RPS of 1, want >= %dx", scale, clusterScaleFactor)
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

// measureClusterScale boots a 1-replica and a 3-replica cluster side by
// side, then runs clusterRounds rounds, each measuring both clusters
// back to back (alternating which goes first, so a slow drift favours
// neither). It logs every round and returns the ns/request at 1 and 3
// replicas of the round with the median 1-vs-3 ratio.
func measureClusterScale(t *testing.T) (ns1, ns3 float64) {
	t.Helper()
	arms := []func() (float64, error){startClusterRPS(t, 1), startClusterRPS(t, 3)}
	rounds := make([][2]float64, clusterRounds) // 1-replica, 3-replica
	for i := range rounds {
		for k := range arms {
			a := (i + k) % len(arms)
			var err error
			if rounds[i][a], err = arms[a](); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("round %d: %.0f -> %.0f rps, %.2fx",
			i+1, 1e9/rounds[i][0], 1e9/rounds[i][1], rounds[i][0]/rounds[i][1])
	}
	scale := func(r [2]float64) float64 { return r[0] / r[1] }
	sort.Slice(rounds, func(a, b int) bool { return scale(rounds[a]) < scale(rounds[b]) })
	mid := rounds[len(rounds)/2]
	return mid[0], mid[1]
}

// startClusterRPS boots an in-process cluster of n replicas behind the
// consistent-hash router and warms it with one pass over the working
// set. Each call of the returned measure drives clusterPasses
// round-robin passes from clusterClientWorkers concurrent clients and
// returns wall clock per request — aggregate throughput, not per-shard
// latency. The cluster shuts down when the test ends.
func startClusterRPS(t *testing.T, n int) (measure func() (float64, error)) {
	t.Helper()
	cl := startCluster(t, n, serve.Config{Workers: clusterServerWorkers / n, CacheSize: clusterCache})
	terms := clusterWorkingSet(clusterTerms)
	bodies := make([]string, len(terms))
	for i, term := range terms {
		bodies[i] = normBody("Queue", term, "")
	}
	drive := func(requests int) error {
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
			return err
		default:
			return nil
		}
	}
	if err := drive(len(bodies)); err != nil { // warmup pass
		t.Fatal(err)
	}
	return func() (float64, error) {
		requests := clusterPasses * len(bodies)
		start := time.Now()
		if err := drive(requests); err != nil {
			return 0, err
		}
		return float64(time.Since(start).Nanoseconds()) / float64(requests), nil
	}
}
