package metrics

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// demo declares one family of every shape, out of alphabetical order.
func demo(book *Requests, v int64) *Registry {
	r := &Registry{}
	r.RequestCounts("adt_requests_total", "Requests served, by endpoint and HTTP status code.", book)
	r.Gauge("adt_in_flight", "In flight.", func() int64 { return v })
	r.Vec("adt_router_forwarded_total", "Forwarded, by shard.", Counter, func(emit Emit) {
		for i := 0; i < 2; i++ {
			emit(v+int64(i), "shard", strconv.Itoa(i))
		}
	})
	r.Counter("adt_cache_hits_total", "Hits.", func() int64 { return v * 2 })
	r.RequestLatency("adt_request_duration_seconds", "Request latency, by endpoint.", book)
	return r
}

// TestRenderGolden pins the exact bytes of a page: HELP and TYPE per
// family in declaration order, label quoting, integer and float values.
func TestRenderGolden(t *testing.T) {
	var book Requests
	book.Observe("normalize", 200, 0.0003)
	book.Count("check", 400)
	got := string(demo(&book, 3).Render())
	want := `# HELP adt_requests_total Requests served, by endpoint and HTTP status code.
# TYPE adt_requests_total counter
adt_requests_total{endpoint="check",code="400"} 1
adt_requests_total{endpoint="normalize",code="200"} 1
# HELP adt_in_flight In flight.
# TYPE adt_in_flight gauge
adt_in_flight 3
# HELP adt_router_forwarded_total Forwarded, by shard.
# TYPE adt_router_forwarded_total counter
adt_router_forwarded_total{shard="0"} 3
adt_router_forwarded_total{shard="1"} 4
# HELP adt_cache_hits_total Hits.
# TYPE adt_cache_hits_total counter
adt_cache_hits_total 6
# HELP adt_request_duration_seconds Request latency, by endpoint.
# TYPE adt_request_duration_seconds histogram
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.0001"} 0
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.00025"} 0
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.0005"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.001"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.0025"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.005"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.01"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.025"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.05"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.1"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.25"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="0.5"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="1"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="2.5"} 1
adt_request_duration_seconds_bucket{endpoint="normalize",le="+Inf"} 1
adt_request_duration_seconds_sum{endpoint="normalize"} 0.0003
adt_request_duration_seconds_count{endpoint="normalize"} 1
`
	if got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
}

// TestRoundTrip: what the registry writes, Parse reads back — every
// sample with its name, labels in order, value and line.
func TestRoundTrip(t *testing.T) {
	var book Requests
	book.Count("upload", 201)
	r := &Registry{}
	r.RequestCounts("adt_requests_total", "Requests.", &book)
	r.Vec("adt_odd", "Odd label values.", Gauge, func(emit Emit) {
		emit(-5, "path", `C:\dir "quoted"`+"\nnext")
		emit(math.MaxInt64, "a", "", "b", "x")
	})
	r.Counter("adt_plain_total", "Plain.", func() int64 { return 42 })
	page, err := Parse(string(r.Render()))
	if err != nil {
		t.Fatal(err)
	}
	want := Page{
		{Name: "adt_requests_total", Labels: map[string]string{"endpoint": "upload", "code": "201"}, Value: 1, Line: 3},
		{Name: "adt_odd", Labels: map[string]string{"path": `C:\dir "quoted"` + "\nnext"}, Value: -5, Line: 6},
		{Name: "adt_odd", Labels: map[string]string{"a": "", "b": "x"}, Value: math.MaxInt64, Line: 7},
		{Name: "adt_plain_total", Value: 42, Line: 10},
	}
	if !reflect.DeepEqual(page, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", page, want)
	}
	if v, ok := page.Value("adt_odd", map[string]string{"a": "", "b": "x"}); !ok || v != math.MaxInt64 {
		t.Errorf("Value(adt_odd{a=\"\",b=\"x\"}) = %g, %v", v, ok)
	}
	if _, ok := page.Value("adt_odd", map[string]string{"a": ""}); ok {
		t.Error("Value matched a sample carrying more labels than asked for")
	}
}

// TestHistogramCumulative: buckets are cumulative in le and the +Inf
// bucket equals _count, including observations past the last bound.
func TestHistogramCumulative(t *testing.T) {
	var book Requests
	for _, s := range []float64{0.00005, 0.0001, 0.003, 0.003, 0.7, 9} {
		book.Observe("normalize", 200, s)
	}
	r := &Registry{}
	r.RequestLatency("adt_request_duration_seconds", "Latency.", &book)
	page, err := Parse(string(r.Render()))
	if err != nil {
		t.Fatal(err)
	}
	buckets := page.Samples("adt_request_duration_seconds_bucket")
	if len(buckets) != len(latencyBuckets)+1 {
		t.Fatalf("%d buckets, want %d", len(buckets), len(latencyBuckets)+1)
	}
	want := map[string]float64{"0.0001": 2, "0.0025": 2, "0.005": 4, "1": 5, "2.5": 5, "+Inf": 6}
	for i, b := range buckets {
		if i > 0 && b.Value < buckets[i-1].Value {
			t.Errorf("bucket le=%s (%g) below the one before (%g)", b.Labels["le"], b.Value, buckets[i-1].Value)
		}
		if w, ok := want[b.Labels["le"]]; ok && b.Value != w {
			t.Errorf("bucket le=%s = %g, want %g", b.Labels["le"], b.Value, w)
		}
	}
	count, _ := page.Value("adt_request_duration_seconds_count", map[string]string{"endpoint": "normalize"})
	if inf := buckets[len(buckets)-1]; inf.Labels["le"] != "+Inf" || inf.Value != count || count != 6 {
		t.Errorf("+Inf bucket %v, _count %g; want both 6", inf, count)
	}
	if sum, _ := page.Value("adt_request_duration_seconds_sum", map[string]string{"endpoint": "normalize"}); math.Abs(sum-9.70615) > 1e-9 {
		t.Errorf("_sum = %g, want 9.70615", sum)
	}
}

// TestRenderDeterministic: the request book's series come out sorted by
// (endpoint, code) whatever order they were booked in, and two renders
// of the same state are identical.
func TestRenderDeterministic(t *testing.T) {
	var a, b Requests
	for _, k := range []struct {
		ep   string
		code int
	}{{"specs", 200}, {"normalize", 404}, {"check", 200}, {"normalize", 200}} {
		a.Observe(k.ep, k.code, 0.001)
	}
	for _, k := range []struct {
		ep   string
		code int
	}{{"normalize", 200}, {"check", 200}, {"normalize", 404}, {"specs", 200}} {
		b.Observe(k.ep, k.code, 0.001)
	}
	pa, pb := string(demo(&a, 1).Render()), string(demo(&b, 1).Render())
	if pa != pb || pa != string(demo(&a, 1).Render()) {
		t.Fatalf("renders differ:\n%s\n---\n%s", pa, pb)
	}
	page, err := Parse(pa)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range page.Samples("adt_requests_total") {
		got = append(got, s.Labels["endpoint"]+":"+s.Labels["code"])
	}
	if want := []string{"check:200", "normalize:200", "normalize:404", "specs:200"}; !reflect.DeepEqual(got, want) {
		t.Errorf("request series order %v, want %v", got, want)
	}
}

// TestParseRejectsMalformed: a malformed sample is a *SyntaxError naming
// its 1-based line; comments and blank lines are not samples.
func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"garbage",
		"adt_x",
		"adt_x  1",
		"adt_x one",
		"9adt 1",
		`adt_x{endpoint="a" 1`,
		`adt_x{endpoint="a"code="b"} 1`,
		`adt_x{endpoint=a} 1`,
		`adt_x{="a"} 1`,
		`adt_x{endpoint="a\q"} 1`,
		`adt_x{a="1",a="2"} 1`,
		"adt_x{a=`raw`} 1",
		`adt_x{endpoint="a} 1`,
		`{endpoint="a"} 1`,
	} {
		_, err := Parse("# HELP adt_ok Fine.\n# TYPE adt_ok counter\nadt_ok 1\n\n" + bad + "\nadt_ok 2\n")
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%q: err = %v, want a *SyntaxError", bad, err)
			continue
		}
		if se.Line != 5 {
			t.Errorf("%q: error names line %d, want 5 (%v)", bad, se.Line, err)
		}
	}
}
