package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"algspec/internal/rewrite"
)

// metrics is the server's observation surface, exposed at GET /metrics
// in the Prometheus text format. Everything here is cumulative since
// process start; the soak test reconciles these counters exactly
// against the requests it made, so updates must never be lost — counts
// per (endpoint, code) live under one mutex taken once per request
// (after the response is written, off the latency-critical path), and
// the high-frequency counters (cache, engine stats, in-flight) are
// atomics owned elsewhere and only read at exposition time.
type metrics struct {
	mu       sync.Mutex
	requests map[requestKey]int64
	hist     map[string]*histogram
	inFlight atomic.Int64
}

type requestKey struct {
	endpoint string
	code     int
}

// latencyBuckets are the histogram upper bounds in seconds. The low end
// resolves a warm cache hit (tens of microseconds); the high end covers
// a normalization that rides its full default fuel.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

type histogram struct {
	counts [len(latencyBuckets) + 1]int64 // last slot is +Inf
	sum    float64
	total  int64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[requestKey]int64),
		hist:     make(map[string]*histogram),
	}
}

// observe records one completed request: its endpoint, response code
// and wall-clock duration in seconds.
func (m *metrics) observe(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{endpoint, code}]++
	h := m.hist[endpoint]
	if h == nil {
		h = &histogram{}
		m.hist[endpoint] = h
	}
	i := sort.SearchFloat64s(latencyBuckets[:], seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// exposition writes the full metrics page. The caller supplies the
// gauges and counters owned by other subsystems: the cache counters,
// the engine stats recorder's snapshot and the interned-term count.
// Output order is deterministic (sorted label sets) to keep it
// diffable.
func (m *metrics) exposition(w io.Writer, cacheHits, cacheMisses, parseHits, parseMisses int64, engine rewrite.Stats, interned int64) {
	fmt.Fprintln(w, "# HELP adt_requests_total Requests served, by endpoint and HTTP status code.")
	fmt.Fprintln(w, "# TYPE adt_requests_total counter")
	m.mu.Lock()
	keys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "adt_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	fmt.Fprintln(w, "# HELP adt_in_flight API requests currently being served (excludes /metrics itself).")
	fmt.Fprintln(w, "# TYPE adt_in_flight gauge")
	fmt.Fprintf(w, "adt_in_flight %d\n", m.inFlight.Load())

	fmt.Fprintln(w, "# HELP adt_cache_hits_total Normal-form cache hits.")
	fmt.Fprintln(w, "# TYPE adt_cache_hits_total counter")
	fmt.Fprintf(w, "adt_cache_hits_total %d\n", cacheHits)
	fmt.Fprintln(w, "# HELP adt_cache_misses_total Normal-form cache misses.")
	fmt.Fprintln(w, "# TYPE adt_cache_misses_total counter")
	fmt.Fprintf(w, "adt_cache_misses_total %d\n", cacheMisses)
	fmt.Fprintln(w, "# HELP adt_parse_cache_hits_total Parse cache hits (term text resolved without reparsing).")
	fmt.Fprintln(w, "# TYPE adt_parse_cache_hits_total counter")
	fmt.Fprintf(w, "adt_parse_cache_hits_total %d\n", parseHits)
	fmt.Fprintln(w, "# HELP adt_parse_cache_misses_total Parse cache misses.")
	fmt.Fprintln(w, "# TYPE adt_parse_cache_misses_total counter")
	fmt.Fprintf(w, "adt_parse_cache_misses_total %d\n", parseMisses)

	for _, c := range [...]struct {
		name string
		val  int
	}{
		{"adt_engine_steps_total", engine.Steps},
		{"adt_engine_rule_fires_total", engine.RuleFires},
		{"adt_engine_native_calls_total", engine.NativeCalls},
		{"adt_engine_compiled_evals_total", engine.CompiledEvals},
		{"adt_engine_interp_evals_total", engine.InterpEvals},
	} {
		fmt.Fprintf(w, "# HELP %s Cumulative engine work across all request forks.\n", c.name)
		fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
		fmt.Fprintf(w, "%s %d\n", c.name, c.val)
	}

	fmt.Fprintln(w, "# HELP adt_interned_terms Canonical terms held by the per-spec interners.")
	fmt.Fprintln(w, "# TYPE adt_interned_terms gauge")
	fmt.Fprintf(w, "adt_interned_terms %d\n", interned)

	fmt.Fprintln(w, "# HELP adt_request_duration_seconds Request latency, by endpoint.")
	fmt.Fprintln(w, "# TYPE adt_request_duration_seconds histogram")
	eps := make([]string, 0, len(m.hist))
	for ep := range m.hist {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		h := m.hist[ep]
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "adt_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", ep, ub, cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "adt_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(w, "adt_request_duration_seconds_sum{endpoint=%q} %g\n", ep, h.sum)
		fmt.Fprintf(w, "adt_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.total)
	}
	m.mu.Unlock()
}
