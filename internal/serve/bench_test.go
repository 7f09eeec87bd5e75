package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"algspec/internal/serve"
)

// e1QueueOps64Term spells the E1 benchmark workload (bench_test.go's
// queueWorkload) as one ground term: 64 interleaved add/remove
// operations over the Queue spec, observed through front. This is the
// term the acceptance criterion measures cold vs warm.
func e1QueueOps64Term() string {
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

// e1Server starts a server whose normal-form cache holds cacheSize
// entries (-1 disables it) and returns a function that sends it the E1
// request once; with prime set, one request fills the cache first. The
// server closes when the test or benchmark ends.
func e1Server(tb testing.TB, cacheSize int, prime bool) (request func()) {
	srv, err := serve.New(serve.Config{Workers: 2, CacheSize: cacheSize})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	h := srv.Handler()
	body := `{"spec":"Queue","term":` + jsonString(e1QueueOps64Term()) + `}`
	send := func() string {
		req := httptest.NewRequest("POST", "/v1/normalize", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	if prime {
		if resp := send(); !strings.Contains(resp, `"cached": false`) {
			tb.Fatalf("priming request was already cached: %s", resp)
		}
	}
	return func() { send() }
}

func benchNormalize(b *testing.B, cacheSize int, prime bool) {
	request := e1Server(b, cacheSize, prime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
}

// BenchmarkServeNormalizeCold measures the full request path with the
// normal-form cache disabled: JSON decode, parse, canon, slot
// admission, full normalization, JSON encode.
func BenchmarkServeNormalizeCold(b *testing.B) {
	benchNormalize(b, -1, false)
}

// BenchmarkServeNormalizeWarm measures the same request answered from
// the shared cache (one priming request, then all hits).
func BenchmarkServeNormalizeWarm(b *testing.B) {
	benchNormalize(b, serve.DefaultCacheSize, true)
}

// BenchmarkServeNormalizeFresh measures requests the server has never
// seen: every iteration sends the E1 term over atoms spelled for that
// iteration alone, so the parse and normal-form caches miss and every
// node above an atom is new to the interner. The cold benchmark, by
// contrast, re-reads one term whose nodes are all interned.
func BenchmarkServeNormalizeFresh(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	h := srv.Handler()
	bodies := make([]string, b.N)
	for i := range bodies {
		tm := strings.NewReplacer("'a", "'a"+strconv.Itoa(i), "'b", "'b"+strconv.Itoa(i),
			"'c", "'c"+strconv.Itoa(i), "'d", "'d"+strconv.Itoa(i)).Replace(e1QueueOps64Term())
		bodies[i] = `{"spec":"Queue","term":` + jsonString(tm) + `}`
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		req := httptest.NewRequest("POST", "/v1/normalize", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached": false`) {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// serveWarmFactor is the server's headline claim: a cache hit on the
// E1 term must answer at least this many times faster than a cold
// normalization of it.
const serveWarmFactor = 5

// The gate takes serveWarmRounds rounds of serveWarmRoundTime each.
// Within a round the cold and warm paths alternate request by request,
// so both meet the machine in the same state, and the round's ratio is
// the median cold request time over the median warm one; the gate reads
// the median round. Means over whole blocks swing with whatever else the
// machine runs: under a parallel go test ./... on a 2-vCPU VM, 100 ms
// blocks of cold requests against blocks of warm ones gave median rounds
// from 4.0x to 5.9x on one build, while these medians read 5.7x to 5.9x.
const (
	serveWarmRounds    = 7
	serveWarmRoundTime = 200 * time.Millisecond
)

// TestServeWarmBeatsCold is the timing-ratio gate over the two request
// paths the benchmarks above measure. A ratio, not an absolute time, so
// it holds on any machine that is not starved for most of the run.
func TestServeWarmBeatsCold(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation distorts the cold/warm ratio")
	}
	if testing.Short() {
		t.Skip("benchmark-backed gate skipped in -short mode")
	}
	arms := [2]func(){e1Server(t, -1, false), e1Server(t, serve.DefaultCacheSize, true)} // cold, warm
	ratios := make([]float64, serveWarmRounds)
	for i := range ratios {
		var ns [2][]float64
		for start := time.Now(); time.Since(start) < serveWarmRoundTime; {
			for k, request := range arms {
				t0 := time.Now()
				request()
				ns[k] = append(ns[k], float64(time.Since(t0)))
			}
		}
		cold, warm := median(ns[0]), median(ns[1])
		ratios[i] = cold / warm
		t.Logf("round %d: cold %.0f ns, warm %.0f ns (medians of %d requests each): %.1fx",
			i+1, cold, warm, len(ns[0]), ratios[i])
	}
	ratio := median(ratios)
	t.Logf("median round: %.1fx", ratio)
	if ratio < serveWarmFactor {
		t.Errorf("warm cache is only %.1fx faster than cold in the median round, want >= %dx", ratio, serveWarmFactor)
	}
}

// median sorts xs and returns its middle element.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
