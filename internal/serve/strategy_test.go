package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"algspec/internal/completion"
	"algspec/internal/serve"
)

// uncertifiableSrc is terminating in practice but carries an axiom no
// reduction order of the completion pass can orient ([q2]: po and qo
// are mutually recursive, and the arguments are identical), so
// completion refuses a certificate.
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

// TestCachePartitionStrictError pins the answers that a normal-form
// cache shared between strategies got wrong. Each term is certified
// (its spec's own axioms are confluent and terminating) yet innermost
// and outermost disagree, because the engine's error is strict and an
// axiom that drops or guards a variable lets outermost answer before
// the argument becomes error. Asked outermost first, then innermost, on
// one server and again after a restart that replays the WAL, each
// strategy must get its own answer: outermost entries are never
// persisted, innermost ones come back warm.
func TestCachePartitionStrictError(t *testing.T) {
	cases := []struct{ spec, term string }{
		{"Queue", "isEmpty?(add(remove(new), 'a))"},
		{"Nat", "ltN(succ(pred(zero)), zero)"},
		{"Bool", "and(false, not(error))"},
	}
	dir := t.TempDir()
	for boot := 1; boot <= 2; boot++ {
		srv, err := serve.New(serve.Config{Workers: 2, PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := newTestServerFrom(t, srv)
		for _, c := range cases {
			if cert := srv.Registry().Base().Certificate(c.spec); !cert.CertifiesAxioms() {
				t.Fatalf("%s: %s; the case needs a certified spec", c.spec, cert)
			}
			out := normalizeStrat(t, ts, c.spec, "", c.term, "outermost")
			in := normalizeStrat(t, ts, c.spec, "", c.term, "innermost")
			if out.NormalForm != "false" || out.Cached {
				t.Errorf("boot %d, %s %s outermost: %s (cached %v), want false uncached",
					boot, c.spec, c.term, out.NormalForm, out.Cached)
			}
			if in.NormalForm != "error" || in.Cached != (boot == 2) {
				t.Errorf("boot %d, %s %s innermost: %s (cached %v), want error (cached %v)",
					boot, c.spec, c.term, in.NormalForm, in.Cached, boot == 2)
			}
		}
		ts.Close()
		srv.Close()
	}
}

// TestCachePartitionPerStrategy: every strategy keeps its own
// normal-form cache entries, whatever the spec's certificate says. On
// the certified Queue, the library's refuted BoundedQueue and the
// uploaded, unorientable UPick alike, each strategy misses once and
// then hits its own entry.
func TestCachePartitionPerStrategy(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 2})
	ver := uploadSpec(t, ts, uncertifiableSrc)
	cases := []struct{ spec, version, term string }{
		{"Queue", "", "front(add(add(new, 'a), 'b))"},
		{"BoundedQueue", "", "sizeq(addq(addq(emptyq, 'a), 'b))"},
		{"UPick", ver, "po(ub(ub(ua)))"},
	}
	for _, c := range cases {
		hits0 := scrapeMetric(t, ts, "adt_cache_hits_total")
		misses0 := scrapeMetric(t, ts, "adt_cache_misses_total")
		nfs := map[string]string{}
		for _, strat := range []string{"innermost", "outermost"} {
			r := normalizeStrat(t, ts, c.spec, c.version, c.term, strat)
			if r.Cached {
				t.Errorf("%s %s: first %s request answered from the cache", c.spec, c.term, strat)
			}
			nfs[strat] = r.NormalForm
		}
		for _, strat := range []string{"innermost", "outermost"} {
			r := normalizeStrat(t, ts, c.spec, c.version, c.term, strat)
			if !r.Cached || r.NormalForm != nfs[strat] {
				t.Errorf("%s %s: repeated %s request answered %s (cached %v), want its own entry %s",
					c.spec, c.term, strat, r.NormalForm, r.Cached, nfs[strat])
			}
		}
		hits := scrapeMetric(t, ts, "adt_cache_hits_total") - hits0
		misses := scrapeMetric(t, ts, "adt_cache_misses_total") - misses0
		if hits != 2 || misses != 2 {
			t.Errorf("%s: %d hit(s) and %d miss(es), want 2 and 2", c.spec, hits, misses)
		}
	}

	// An unknown strategy is a 400, not a silent default.
	breq, _ := json.Marshal(serve.NormalizeRequest{Spec: "Queue", Term: "new", Strategy: "leftmost"})
	if code, _ := do(t, ts, "POST", "/v1/normalize", string(breq)); code != 400 {
		t.Fatalf("unknown strategy: %d, want 400", code)
	}
}

// TestCachePartitionPerStrategySoak hammers one spec with both
// strategies from many goroutines (the race detector watches the cache)
// and then reconciles /metrics exactly: every normalize request is one
// cache hit or one miss, each (term, strategy) pair misses at least
// once, and each strategy's answer for a term never changes.
func TestCachePartitionPerStrategySoak(t *testing.T) {
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
				key := strat + " " + tm
				mu.Lock()
				if prev, ok := nfs[key]; ok && prev != r.NormalForm {
					t.Errorf("%s: NF %s, previously %s", key, r.NormalForm, prev)
				}
				nfs[key] = r.NormalForm
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	hits := scrapeMetric(t, ts, "adt_cache_hits_total")
	misses := scrapeMetric(t, ts, "adt_cache_misses_total")
	if hits+misses != workers*perWorker {
		t.Errorf("cache hits %d + misses %d != %d requests", hits, misses, workers*perWorker)
	}
	if misses < int64(len(nfs)) {
		t.Errorf("%d miss(es) for %d (term, strategy) pairs: a strategy answered from another's entry", misses, len(nfs))
	}
	if _, page := do(t, ts, "GET", "/metrics", ""); strings.Contains(page, "cross_strategy") {
		t.Error("/metrics still has a cross-strategy family")
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

// TestCachePartitionDerivedRule: on a spec whose certificate needed a
// derived rule, whichever strategy asks first, and after a restart that
// replays the WAL, each answer is its own strategy's normal form. The
// certificate does not certify the axioms the engine runs, so the
// library's gauge does not count such a spec either.
func TestCachePartitionDerivedRule(t *testing.T) {
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
			if c := v.Certificate("CP"); c.Verdict != completion.Certified || c.CertifiesAxioms() {
				t.Fatalf("CP: %s; want certified with a derived rule, so not certifying its axioms", c)
			}
			for _, strat := range order {
				if got := normalizeStrat(t, ts, "CP", ver, "f(g(a))", strat); got.NormalForm != want[strat] {
					t.Errorf("order %v, boot %d: %s answered %s (cached %v), want %s",
						order, boot, strat, got.NormalForm, got.Cached, want[strat])
				}
			}
			// The library derives and flips nothing: all 18 certified
			// specs certify their own axioms.
			if n := scrapeMetric(t, ts, "adt_confluence_certified"); n != 18 {
				t.Errorf("adt_confluence_certified = %d, want 18", n)
			}
			ts.Close()
			srv.Close()
		}
	}
}
