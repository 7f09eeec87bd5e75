package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"algspec/internal/cluster"
	"algspec/internal/serve"
)

// serveBenchExport measures the HTTP normalization path of `adt serve`
// cold (cache disabled: parse, canon, slot admission, full rewrite)
// and warm (same request answered from the shared caches), then the
// cluster scale-out rows: aggregate throughput of the consistent-hash
// cluster at 1 and 3 replicas over a working set larger than any single
// replica's cache. The warm/cold ratio is the server's headline claim —
// a cache hit must be at least serveWarmFactor times faster — and the
// 3-vs-1 replica ratio is the cluster's: partitioning the keyspace must
// buy at least clusterScaleFactor aggregate RPS in the median of
// clusterRounds interleaved rounds. Either decaying fails the export,
// and CI with it.
const (
	serveWarmFactor    = 5
	clusterScaleFactor = 2
)

func serveBenchExport(out io.Writer, path string) error {
	cold := measure("serve_normalize_cold", benchServeNormalize(-1, false))
	warm := measure("serve_normalize_warm", benchServeNormalize(serve.DefaultCacheSize, true))
	rps1, rps3, err := measureClusterScale()
	if err != nil {
		return err
	}
	rows := []benchRow{cold, warm, rps1, rps3}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	ratio := cold.NsPerOp / warm.NsPerOp
	scale := rps1.NsPerOp / rps3.NsPerOp
	fmt.Fprintf(out, "wrote %d benchmark rows to %s (cold %.0f ns/op, warm %.0f ns/op, %.1fx; cluster %.0f -> %.0f rps, %.1fx)\n",
		len(rows), path, cold.NsPerOp, warm.NsPerOp, ratio, 1e9/rps1.NsPerOp, 1e9/rps3.NsPerOp, scale)
	if ratio < serveWarmFactor {
		return fmt.Errorf("warm cache is only %.1fx faster than cold, want >= %dx", ratio, serveWarmFactor)
	}
	if scale < clusterScaleFactor {
		return fmt.Errorf("3 replicas sustain only %.1fx the aggregate RPS of 1, want >= %dx", scale, clusterScaleFactor)
	}
	return nil
}

// Cluster benchmark shape: the working set is clusterTerms heavy E1
// queue terms (~525µs cold, ~30µs warm each), each replica's cache
// holds clusterCache entries, and clusterServerWorkers normalization
// workers are split across the replicas so total compute is constant —
// the only thing 3 replicas add over 1 is partitioned cache capacity.
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
// neither). It returns the rows of the round with the median 1-vs-3
// ratio, so the rows' own ratio is the median round's.
func measureClusterScale() (rps1, rps3 benchRow, err error) {
	var arms []func() (benchRow, error)
	for _, n := range []int{1, 3} {
		measure, stop, err := startClusterRPS(n)
		if err != nil {
			return benchRow{}, benchRow{}, err
		}
		defer stop()
		arms = append(arms, measure)
	}
	rounds := make([][2]benchRow, clusterRounds) // 1-replica, 3-replica
	for i := range rounds {
		for k := range arms {
			a := (i + k) % len(arms)
			if rounds[i][a], err = arms[a](); err != nil {
				return benchRow{}, benchRow{}, err
			}
		}
	}
	scale := func(r [2]benchRow) float64 { return r[0].NsPerOp / r[1].NsPerOp }
	sort.Slice(rounds, func(a, b int) bool { return scale(rounds[a]) < scale(rounds[b]) })
	mid := rounds[len(rounds)/2]
	return mid[0], mid[1], nil
}

// startClusterRPS boots an in-process cluster of n replicas behind the
// consistent-hash router and warms it with one pass over the working
// set. Each call of the returned measure drives clusterPasses
// round-robin passes from clusterClientWorkers concurrent clients; the
// row's ns/op is wall clock over requests — aggregate throughput, not
// per-shard latency. stop shuts the cluster down.
func startClusterRPS(n int) (measure func() (benchRow, error), stop func(), err error) {
	workers := clusterServerWorkers / n
	if workers < 1 {
		workers = 1
	}
	cl, err := cluster.StartLocal(n,
		serve.Config{Workers: workers, CacheSize: clusterCache},
		cluster.Config{HealthEvery: -1})
	if err != nil {
		return nil, nil, err
	}
	terms := clusterWorkingSet(clusterTerms)
	bodies := make([]string, len(terms))
	for i, t := range terms {
		tj, err := json.Marshal(t)
		if err != nil {
			cl.Close()
			return nil, nil, err
		}
		bodies[i] = `{"spec":"Queue","term":` + string(tj) + `}`
	}
	client := &http.Client{}
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
					resp, err := client.Post(cl.URL()+"/v1/normalize", "application/json",
						strings.NewReader(bodies[i%len(bodies)]))
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("cluster bench: status %d", resp.StatusCode)
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
		cl.Close()
		return nil, nil, err
	}
	measure = func() (benchRow, error) {
		requests := clusterPasses * len(bodies)
		start := time.Now()
		if err := drive(requests); err != nil {
			return benchRow{}, err
		}
		elapsed := time.Since(start)
		return benchRow{
			Name:       fmt.Sprintf("cluster_rps_%d", n),
			Iterations: requests,
			NsPerOp:    float64(elapsed.Nanoseconds()) / float64(requests),
		}, nil
	}
	return measure, cl.Close, nil
}

// e1QueueServeTerm is the E1 benchmark workload (64 interleaved Queue
// operations, observed through front) spelled as request text — the
// term the serve acceptance criterion measures.
func e1QueueServeTerm() string {
	items := []string{"a", "b", "c", "d"}
	state := "new"
	size := 0
	for i := 0; i < 64; i++ {
		if size > 0 && i%3 == 0 {
			state = "remove(" + state + ")"
			size--
		} else {
			state = fmt.Sprintf("add(%s, '%s)", state, items[i%len(items)])
			size++
		}
	}
	return "front(" + state + ")"
}

func benchServeNormalize(cacheSize int, prime bool) func(b *testing.B) {
	return func(b *testing.B) {
		srv, err := serve.New(serve.Config{Workers: 2, CacheSize: cacheSize})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		termJSON, err := json.Marshal(e1QueueServeTerm())
		if err != nil {
			b.Fatal(err)
		}
		body := `{"spec":"Queue","term":` + string(termJSON) + `}`
		request := func() {
			req := httptest.NewRequest("POST", "/v1/normalize", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
		if prime {
			request()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			request()
		}
	}
}
