package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"algspec/internal/completion"
	"algspec/internal/serve"
)

// uncertifiableSrc is terminating in practice but carries an axiom no
// reduction order of the completion pass can orient ([q2]: po and qo
// are mutually recursive, and the arguments are identical), so
// completion refuses a certificate — the fixture for "no cross-strategy
// sharing without proof", the situation the certificate gate exists
// for: plausible-but-unproven.
const uncertifiableSrc = `
spec UPick
  uses Bool
  ops
    ua : -> UPick
    ub : UPick -> UPick
    po : UPick -> Bool
    qo : UPick -> Bool
  vars
    x : UPick
  axioms
    [p1] po(ua) = true
    [p2] po(ub(x)) = qo(x)
    [q1] qo(ua) = false
    [q2] qo(ub(x)) = po(ub(x))
end
`

// scrapeMetric fetches /metrics and extracts one sample.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	code, body := do(t, ts, "GET", "/metrics", "")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	return metricValue(t, body, name)
}

func normalizeStrat(t *testing.T, ts *httptest.Server, spec, version, tm, strategy string) serve.NormalizeResponse {
	t.Helper()
	req := serve.NormalizeRequest{Spec: spec, Version: version, Term: tm, Strategy: strategy}
	b, _ := json.Marshal(req)
	code, body := do(t, ts, "POST", "/v1/normalize", string(b))
	if code != 200 {
		t.Fatalf("normalize %s %q strategy=%q: %d %s", spec, tm, strategy, code, body)
	}
	var resp serve.NormalizeResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCrossStrategyCacheSharing: on a certified base spec, an innermost
// cold run's entry answers the outermost request for the same term —
// counted by adt_cache_cross_strategy_hits_total — and vice versa. On
// an uncertified uploaded spec the partitions stay disjoint and the
// counter never moves.
func TestCrossStrategyCacheSharing(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 2})

	if n := scrapeMetric(t, ts, "adt_confluence_certified"); n < 10 {
		t.Fatalf("adt_confluence_certified = %d, want at least 10 of the library certified", n)
	}

	// Queue is certified: cold innermost, then outermost must hit the
	// shared entry.
	tm := "front(add(add(new, 'a), 'b))"
	cold := normalizeStrat(t, ts, "Queue", "", tm, "innermost")
	if cold.Cached {
		t.Fatal("first request reported cached")
	}
	warm := normalizeStrat(t, ts, "Queue", "", tm, "outermost")
	if !warm.Cached {
		t.Fatal("outermost request missed the certified shared cache")
	}
	if warm.NormalForm != cold.NormalForm {
		t.Fatalf("cross-strategy NF mismatch: %s vs %s", warm.NormalForm, cold.NormalForm)
	}
	if n := scrapeMetric(t, ts, "adt_cache_cross_strategy_hits_total"); n != 1 {
		t.Fatalf("adt_cache_cross_strategy_hits_total = %d after one cross hit", n)
	}

	// The reverse direction: outermost pays the cold run, innermost
	// shares it.
	tm2 := "front(add(add(new, 'b), 'a))"
	if r := normalizeStrat(t, ts, "Queue", "", tm2, "outermost"); r.Cached {
		t.Fatal("fresh outermost term reported cached")
	}
	if r := normalizeStrat(t, ts, "Queue", "", tm2, "innermost"); !r.Cached {
		t.Fatal("innermost request missed the entry outermost computed")
	}
	if n := scrapeMetric(t, ts, "adt_cache_cross_strategy_hits_total"); n != 2 {
		t.Fatalf("adt_cache_cross_strategy_hits_total = %d after two cross hits", n)
	}

	// A same-strategy repeat is a plain hit, not a cross hit.
	normalizeStrat(t, ts, "Queue", "", tm, "innermost")
	if n := scrapeMetric(t, ts, "adt_cache_cross_strategy_hits_total"); n != 2 {
		t.Fatalf("same-strategy hit moved the cross counter to %d", n)
	}

	// Upload the uncertifiable spec; its strategies must not share.
	b, _ := json.Marshal(map[string]string{"source": uncertifiableSrc})
	code, body := do(t, ts, "POST", "/v1/specs", string(b))
	if code != 201 {
		t.Fatalf("upload: %d %s", code, body)
	}
	var up serve.SpecUploadResponse
	if err := json.Unmarshal([]byte(body), &up); err != nil {
		t.Fatal(err)
	}
	utm := "po(ub(ub(ua)))"
	if r := normalizeStrat(t, ts, "UPick", up.Version, utm, "innermost"); r.Cached {
		t.Fatal("fresh uncertified term reported cached")
	}
	if r := normalizeStrat(t, ts, "UPick", up.Version, utm, "outermost"); r.Cached {
		t.Fatal("uncertified outermost request hit the innermost entry")
	}
	// Each partition now warm — repeats hit, same-strategy only.
	if r := normalizeStrat(t, ts, "UPick", up.Version, utm, "outermost"); !r.Cached {
		t.Fatal("uncertified outermost repeat missed its own partition")
	}
	if n := scrapeMetric(t, ts, "adt_cache_cross_strategy_hits_total"); n != 2 {
		t.Fatalf("uncertified spec moved the cross counter to %d", n)
	}

	// BoundedQueue is the library's own uncertified spec: its
	// partitions must stay disjoint too.
	btm := "sizeq(addq(addq(emptyq, 'a), 'b))"
	if r := normalizeStrat(t, ts, "BoundedQueue", "", btm, "innermost"); r.Cached {
		t.Fatal("fresh BoundedQueue term reported cached")
	}
	if r := normalizeStrat(t, ts, "BoundedQueue", "", btm, "outermost"); r.Cached {
		t.Fatal("uncertified BoundedQueue outermost request shared the innermost entry")
	}
	if n := scrapeMetric(t, ts, "adt_cache_cross_strategy_hits_total"); n != 2 {
		t.Fatalf("BoundedQueue moved the cross counter to %d", n)
	}

	// An unknown strategy is a 400, not a silent default.
	breq, _ := json.Marshal(serve.NormalizeRequest{Spec: "Queue", Term: "new", Strategy: "leftmost"})
	if code, _ := do(t, ts, "POST", "/v1/normalize", string(breq)); code != 400 {
		t.Fatalf("unknown strategy: %d, want 400", code)
	}
}

// TestCrossStrategySoak hammers one certified spec with both strategies
// from many goroutines (the race detector watches the shared cache and
// the cross counter) and then reconciles /metrics exactly: every
// normalize request is either a cache hit or a miss, and cross hits
// never exceed total hits.
func TestCrossStrategySoak(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 4})

	terms := make([]string, 8)
	for i := range terms {
		q := "new"
		for j := 0; j <= i; j++ {
			it := "'a"
			if (i+j)%2 == 1 {
				it = "'b"
			}
			q = fmt.Sprintf("add(%s, %s)", q, it)
		}
		terms[i] = fmt.Sprintf("front(%s)", q)
	}

	hits0, _ := scrapeMetric(t, ts, "adt_cache_hits_total"), scrapeMetric(t, ts, "adt_cache_misses_total")
	cross0 := scrapeMetric(t, ts, "adt_cache_cross_strategy_hits_total")

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	nfs := map[string]string{}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				strat := "innermost"
				if (g+i)%2 == 1 {
					strat = "outermost"
				}
				tm := terms[(g*perWorker+i)%len(terms)]
				r := normalizeStrat(t, ts, "Queue", "", tm, strat)
				mu.Lock()
				if prev, ok := nfs[tm]; ok && prev != r.NormalForm {
					t.Errorf("%s: NF %s under %s, previously %s", tm, r.NormalForm, strat, prev)
				}
				nfs[tm] = r.NormalForm
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	hits := scrapeMetric(t, ts, "adt_cache_hits_total") - hits0
	misses := scrapeMetric(t, ts, "adt_cache_misses_total")
	cross := scrapeMetric(t, ts, "adt_cache_cross_strategy_hits_total") - cross0
	if got := hits + misses; got < workers*perWorker {
		// Every request asked the cache exactly once; boot-time warmth
		// contributes misses but never subtracts.
		t.Errorf("cache hits %d + misses %d < %d requests", hits, misses, workers*perWorker)
	}
	if cross == 0 {
		t.Error("strategy-mixed soak on a certified spec produced no cross-strategy hits")
	}
	if cross > hits {
		t.Errorf("cross-strategy hits %d exceed total hits %d", cross, hits)
	}
}

// cpSrc is certified only because completion adds a rule: [f1] and
// [g1] overlap on f(g(a)), whose contractions f(b) and h(a) do not
// join, so completion derives [cp1] f(b) -> h(a). The engine runs the
// three axioms, under which innermost reaches f(b) and outermost h(a).
const cpSrc = `
spec CP
  ops
    a : -> CP
    b : -> CP
    h : CP -> CP
    g : CP -> CP
    f : CP -> CP
  vars
    x : CP
  axioms
    [g1] g(a) = b
    [f1] f(g(x)) = h(x)
    [f2] f(a) = a
end
`

// uploadSpec registers src and returns its version id.
func uploadSpec(t *testing.T, ts *httptest.Server, src string) string {
	t.Helper()
	b, _ := json.Marshal(map[string]string{"source": src})
	code, body := do(t, ts, "POST", "/v1/specs", string(b))
	if code != 201 && code != 200 {
		t.Fatalf("upload: %d %s", code, body)
	}
	var up serve.SpecUploadResponse
	if err := json.Unmarshal([]byte(body), &up); err != nil {
		t.Fatal(err)
	}
	return up.Version
}

// TestCertificateGateNeedsOwnAxioms: a certificate that needed a
// derived rule does not open the shared partition. Whichever strategy
// asks first, and after a restart that replays the WAL, each answer is
// its own strategy's uncached answer.
func TestCertificateGateNeedsOwnAxioms(t *testing.T) {
	want := map[string]string{"innermost": "f(b)", "outermost": "h(a)"}
	for _, order := range [][]string{{"innermost", "outermost"}, {"outermost", "innermost"}} {
		dir := t.TempDir()
		for boot := 1; boot <= 2; boot++ {
			srv, err := serve.New(serve.Config{Workers: 2, PersistDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			ts := newTestServerFrom(t, srv)
			ver := uploadSpec(t, ts, cpSrc)
			v, _ := srv.Registry().Resolve(ver)
			if c := v.Certificate("CP"); c.Verdict != completion.Certified || c.CertifiesAxioms() || v.Certified("CP") {
				t.Fatalf("CP: %s; want certified with a derived rule, so not certifying its axioms", c)
			}
			for _, strat := range order {
				if got := normalizeStrat(t, ts, "CP", ver, "f(g(a))", strat); got.NormalForm != want[strat] {
					t.Errorf("order %v, boot %d: %s answered %s (cached %v), want %s",
						order, boot, strat, got.NormalForm, got.Cached, want[strat])
				}
			}
			if n := scrapeMetric(t, ts, "adt_cache_cross_strategy_hits_total"); n != 0 {
				t.Errorf("order %v, boot %d: %d cross-strategy hits on CP", order, boot, n)
			}
			// The library derives and flips nothing: the gate passes
			// the same 18 specs the verdict certifies.
			if n := scrapeMetric(t, ts, "adt_confluence_certified"); n != 18 {
				t.Errorf("adt_confluence_certified = %d, want 18", n)
			}
			ts.Close()
			srv.Close()
		}
	}
}
