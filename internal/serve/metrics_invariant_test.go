package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"algspec/internal/metrics"
	"algspec/internal/serve"
)

// parsePage parses a /metrics page, failing the test when it is
// malformed.
func parsePage(t testing.TB, text string) metrics.Page {
	t.Helper()
	page, err := metrics.Parse(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	return page
}

// metricValue returns the value of one series (a name and its label
// pairs) on a /metrics page, failing the test when the page lacks it.
func metricValue(t testing.TB, text, name string, labels ...string) int64 {
	t.Helper()
	var want map[string]string
	for i := 0; i+1 < len(labels); i += 2 {
		if want == nil {
			want = map[string]string{}
		}
		want[labels[i]] = labels[i+1]
	}
	v, ok := parsePage(t, text).Value(name, want)
	if !ok {
		t.Fatalf("metrics page has no sample %s%q:\n%s", name, labels, text)
	}
	return int64(v)
}

// TestMetricsMonotoneUnderLoad scrapes /metrics twice with concurrent
// traffic in between and asserts the counter contract: every cumulative
// series is monotone non-decreasing, and within each histogram the
// buckets are cumulative-monotone in le with le="+Inf" equal to _count.
func TestMetricsMonotoneUnderLoad(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 4})

	hammer := func(rounds int) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					switch i % 3 {
					case 0:
						do(t, ts, "POST", "/v1/normalize",
							fmt.Sprintf(`{"spec":"Queue","term":"front(add(new, 'w%dr%d))"}`, w, i))
					case 1:
						do(t, ts, "POST", "/v1/normalize", `{"spec":"Ghost","term":"x"}`)
					default:
						do(t, ts, "GET", "/v1/specs", "")
					}
				}
			}(w)
		}
		wg.Wait()
	}

	scrape := func() metrics.Page {
		_, text := do(t, ts, "GET", "/metrics", "")
		return parsePage(t, text)
	}
	series := func(s metrics.Sample) string { return fmt.Sprint(s.Name, s.Labels) }
	hammer(10)
	before := scrape()
	hammer(10)
	after := scrape()

	afterVals := make(map[string]float64)
	for _, s := range after {
		afterVals[series(s)] = s.Value
	}
	gauges := map[string]bool{"adt_in_flight": true, "adt_interned_terms": true}
	for _, s := range before {
		if gauges[s.Name] {
			continue
		}
		v1, ok := afterVals[series(s)]
		if !ok {
			t.Errorf("series %s vanished between scrapes", series(s))
			continue
		}
		if v1 < s.Value {
			t.Errorf("counter %s went backwards: %g -> %g", series(s), s.Value, v1)
		}
	}

	// Histogram shape: per endpoint, bucket counts appear in exposition
	// order (ascending le, +Inf last) and must be non-decreasing, with
	// the +Inf bucket equal to the series _count.
	buckets := make(map[string][]float64)
	inf := make(map[string]float64)
	for _, s := range after.Samples("adt_request_duration_seconds_bucket") {
		ep := s.Labels["endpoint"]
		if s.Labels["le"] == "+Inf" {
			inf[ep] = s.Value
		}
		buckets[ep] = append(buckets[ep], s.Value)
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets on the metrics page")
	}
	for ep, counts := range buckets {
		for i := 1; i < len(counts); i++ {
			if counts[i] < counts[i-1] {
				t.Errorf("endpoint %s: bucket %d (%g) below bucket %d (%g); cumulative histograms must be monotone in le",
					ep, i, counts[i], i-1, counts[i-1])
			}
		}
		count, ok := after.Value("adt_request_duration_seconds_count", map[string]string{"endpoint": ep})
		if !ok {
			t.Errorf("endpoint %s: histogram has buckets but no _count", ep)
			continue
		}
		if inf[ep] != count {
			t.Errorf("endpoint %s: le=\"+Inf\" bucket %g != _count %g", ep, inf[ep], count)
		}
	}
}

// TestInternedTermsCountUploads: adt_interned_terms sums the Systems of
// every registry version, so normalizes pinned to an upload — which
// intern into that version's own Systems — raise it.
func TestInternedTermsCountUploads(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 2})
	src, _ := json.Marshal(goodCheckSrc)
	code, body := do(t, ts, "POST", "/v1/specs", fmt.Sprintf(`{"source":%s}`, src))
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	var up serve.SpecUploadResponse
	if err := json.Unmarshal([]byte(body), &up); err != nil {
		t.Fatal(err)
	}
	interned := func() int64 {
		_, page := do(t, ts, "GET", "/metrics", "")
		return metricValue(t, page, "adt_interned_terms")
	}
	before := interned()
	const requests = 20
	for i := 0; i < requests; i++ {
		term := fmt.Sprintf("front(add(add(new, 'p%d), 'q%d))", i, i)
		if code, body := do(t, ts, "POST", "/v1/normalize", normalizeBody(t, "Queue", term, up.Version)); code != http.StatusOK {
			t.Fatalf("pinned normalize: status %d: %s", code, body)
		}
	}
	// Each request interns at least its two fresh atoms.
	if after := interned(); after < before+2*requests {
		t.Errorf("adt_interned_terms went from %d to %d over %d pinned normalizes with fresh atoms", before, after, requests)
	}
}
