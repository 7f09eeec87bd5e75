package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

func benchNormalize(b *testing.B, cacheSize int, prime bool) {
	srv, err := serve.New(serve.Config{Workers: 2, CacheSize: cacheSize})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := `{"spec":"Queue","term":` + jsonString(e1QueueOps64Term()) + `}`
	request := func() string {
		req := httptest.NewRequest("POST", "/v1/normalize", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	if prime {
		if resp := request(); !strings.Contains(resp, `"cached": false`) {
			b.Fatalf("priming request was already cached: %s", resp)
		}
	}
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

// serveWarmFactor is the server's headline claim: a cache hit on the
// E1 term must answer at least this many times faster than a cold
// normalization of it.
const serveWarmFactor = 5

// TestServeWarmBeatsCold is the timing-ratio gate over the two
// benchmarks above. A ratio, not an absolute time, so it holds on any
// machine that is not starved mid-run.
func TestServeWarmBeatsCold(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation distorts the cold/warm ratio")
	}
	if testing.Short() {
		t.Skip("benchmark-backed gate skipped in -short mode")
	}
	cold := testing.Benchmark(BenchmarkServeNormalizeCold)
	warm := testing.Benchmark(BenchmarkServeNormalizeWarm)
	// testing.Benchmark discards a failed benchmark's output and returns
	// a zero result, whose 0/0 ns/op would make the comparison below
	// false and the gate pass.
	if cold.N == 0 || warm.N == 0 {
		t.Fatalf("a serve benchmark failed (cold N=%d, warm N=%d); run go test -run NONE -bench ServeNormalize ./internal/serve to see why", cold.N, warm.N)
	}
	coldNs := float64(cold.T.Nanoseconds()) / float64(cold.N)
	warmNs := float64(warm.T.Nanoseconds()) / float64(warm.N)
	ratio := coldNs / warmNs
	t.Logf("cold %.0f ns/op, warm %.0f ns/op: %.1fx", coldNs, warmNs, ratio)
	if ratio < serveWarmFactor {
		t.Errorf("warm cache is only %.1fx faster than cold, want >= %dx", ratio, serveWarmFactor)
	}
}
