package metrics

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// FuzzParse: Parse never panics on arbitrary text, every error it
// returns is a *SyntaxError naming a line of the input, and a page the
// registry writes — whatever its label values and values — parses back
// to exactly the samples written.
func FuzzParse(f *testing.F) {
	f.Add("# HELP adt_x X.\n# TYPE adt_x counter\nadt_x 1\n", "normalize", int64(7), 0.00025)
	f.Add(`adt_requests_total{endpoint="check",code="200"} 3`, `q"uo\te} 1`, int64(-1), 2.5)
	f.Add("adt_x{a=\"\\\"} 1\nadt_y 2", "\n\xff", int64(math.MaxInt64), math.Inf(1))
	f.Add("garbage\n", "", int64(0), -1.0)

	f.Fuzz(func(t *testing.T, text, label string, v int64, seconds float64) {
		if page, err := Parse(text); err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) || se.Line < 1 {
				t.Fatalf("error %v is not a *SyntaxError naming a line", err)
			}
		} else {
			for _, s := range page {
				if s.Line < 1 || s.Name == "" {
					t.Fatalf("sample %+v has no line or name", s)
				}
			}
		}

		if math.IsNaN(seconds) {
			seconds = 0 // NaN never equals itself, so it cannot round-trip
		}
		var book Requests
		book.Observe(label, 200, seconds)
		r := &Registry{}
		r.Counter("adt_fuzz_total", "Fuzzed counter.", func() int64 { return v })
		r.Vec("adt_fuzz_labeled", "Fuzzed labels.", Gauge, func(emit Emit) { emit(v, "endpoint", label, "le", label) })
		r.RequestCounts("adt_requests_total", "Requests.", &book)
		r.RequestLatency("adt_request_duration_seconds", "Latency.", &book)
		page, err := Parse(string(r.Render()))
		if err != nil {
			t.Fatalf("written page does not parse: %v", err)
		}
		ep := map[string]string{"endpoint": label}
		want := []Sample{
			{Name: "adt_fuzz_total", Value: float64(v)},
			{Name: "adt_fuzz_labeled", Labels: map[string]string{"endpoint": label, "le": label}, Value: float64(v)},
			{Name: "adt_requests_total", Labels: map[string]string{"endpoint": label, "code": "200"}, Value: 1},
			{Name: "adt_request_duration_seconds_bucket", Labels: map[string]string{"endpoint": label, "le": "+Inf"}, Value: 1},
			{Name: "adt_request_duration_seconds_sum", Labels: ep, Value: seconds},
			{Name: "adt_request_duration_seconds_count", Labels: ep, Value: 1},
		}
		var got []Sample
		for _, s := range page {
			if s.Name == "adt_request_duration_seconds_bucket" && s.Labels["le"] != "+Inf" {
				continue
			}
			s.Line = 0
			got = append(got, s)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parsed back\n%+v\nwant\n%+v", got, want)
		}
	})
}
