package serve_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"algspec/internal/serve"
	"algspec/internal/speclib"
)

// soakTerms is an overlapping workload: every goroutine draws from the
// same small set, so the cache sees heavy sharing and every entry is
// both written and read concurrently.
func soakTerms() []string {
	base := []string{
		"front(add(add(new, 'a), 'b))",
		"front(remove(add(add(add(new, 'a), 'b), 'c)))",
		"isEmpty?(remove(add(new, 'x)))",
		"front(add(new, 'z))",
		"isEmpty?(new)",
	}
	// Deepen the set so misses are not trivially cheap.
	for i := 0; i < 5; i++ {
		t := "new"
		for j := 0; j <= i+3; j++ {
			t = fmt.Sprintf("add(%s, '%c)", t, 'a'+byte(j))
		}
		base = append(base, "front(remove("+t+"))")
	}
	return base
}

// TestSoakConcurrentNormalize hammers /v1/normalize from many
// goroutines with overlapping terms and then audits the system end to
// end: every response must equal the sequential normalization of its
// term, and the /metrics counters must reconcile exactly with the
// request count — requests = cache hits + cache misses, with no lost
// updates. Run under -race in CI, this is the PR's concurrency
// acceptance test.
func TestSoakConcurrentNormalize(t *testing.T) {
	const goroutines = 8
	const rounds = 5 // each goroutine sends every term this many times

	terms := soakTerms()
	// Sequential ground truth from an independent environment.
	want := make(map[string]string, len(terms))
	env := speclib.BaseEnv()
	for _, src := range terms {
		nf, err := env.Eval("Queue", src)
		if err != nil {
			t.Fatalf("sequential %s: %v", src, err)
		}
		want[src] = nf.String()
	}

	ts := newTestServer(t, serve.Config{Workers: 4})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range terms {
					// Stagger the order per goroutine so overlapping
					// requests race on different entries.
					src := terms[(i+g)%len(terms)]
					code, body := do(t, ts, "POST", "/v1/normalize",
						`{"spec":"Queue","term":`+jsonString(src)+`}`)
					if code != 200 {
						errs <- fmt.Errorf("%s: status %d: %s", src, code, body)
						return
					}
					wantNF := `"normal_form": ` + jsonString(want[src])
					if !strings.Contains(body, wantNF) {
						errs <- fmt.Errorf("%s: response diverged from sequential normalization:\n%s\n(want %s)", src, body, wantNF)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	total := int64(goroutines * rounds * len(terms))
	code, page := do(t, ts, "GET", "/metrics", "")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	served := metricValue(t, page, "adt_requests_total", "endpoint", "normalize", "code", "200")
	hits := metricValue(t, page, "adt_cache_hits_total")
	misses := metricValue(t, page, "adt_cache_misses_total")
	if served != total {
		t.Errorf("requests_total = %d, want %d (lost request updates)", served, total)
	}
	if hits+misses != total {
		t.Errorf("cache hits %d + misses %d = %d, want %d (lost cache updates)", hits, misses, hits+misses, total)
	}
	// Each distinct term misses at least once; concurrent first
	// requests may each miss, but never more often than one per
	// (goroutine, term) pair.
	if misses < int64(len(terms)) || misses > int64(goroutines*len(terms)) {
		t.Errorf("misses = %d, want between %d and %d", misses, len(terms), goroutines*len(terms))
	}
	if got := metricValue(t, page, "adt_in_flight"); got != 0 {
		t.Errorf("in_flight = %d after the soak, want 0", got)
	}
	if steps := metricValue(t, page, "adt_engine_steps_total"); steps <= 0 {
		t.Errorf("engine steps = %d, want > 0", steps)
	}
	hist := metricValue(t, page, "adt_request_duration_seconds_count", "endpoint", "normalize")
	if hist != total {
		t.Errorf("latency observations = %d, want %d", hist, total)
	}
}

// TestSoakSharedTraceAndCache interleaves traced (cache-bypassing) and
// plain requests to the same term, ensuring the two paths agree and
// trace requests never pollute cache accounting.
func TestSoakSharedTraceAndCache(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 4})
	const src = "front(remove(add(add(add(new, 'a), 'b), 'c)))"
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(traced bool) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body := `{"spec":"Queue","term":` + jsonString(src) + `,"trace":` + strconv.FormatBool(traced) + `}`
				code, resp := do(t, ts, "POST", "/v1/normalize", body)
				if code != 200 || !strings.Contains(resp, `"normal_form": "'b"`) {
					t.Errorf("traced=%v: %d %s", traced, code, resp)
					return
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
	_, page := do(t, ts, "GET", "/metrics", "")
	hits := metricValue(t, page, "adt_cache_hits_total")
	misses := metricValue(t, page, "adt_cache_misses_total")
	// 30 plain requests consulted the cache; 30 traced ones bypassed it.
	if hits+misses != 30 {
		t.Errorf("hits %d + misses %d = %d, want 30 (traced requests must bypass the cache)", hits, misses, hits+misses)
	}
}
