package serve_test

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algspec/internal/serve"
)

// -update regenerates the golden JSON bodies under testdata/.
var update = flag.Bool("update", false, "rewrite golden files")

// loopSrc diverges on spin(go): the only way out is fuel or deadline.
const loopSrc = `
spec Loop
  uses Bool
  ops
    go   : -> Loop
    spin : Loop -> Loop
  vars x : Loop
  axioms
    [spin] spin(x) = spin(x)
end
`

// goodCheckSrc is a tiny complete, consistent spec for /v1/check.
const goodCheckSrc = "spec Toggle\n  uses Bool\n  ops\n    off : -> Toggle\n    on : Toggle -> Toggle\n    lit? : Toggle -> Bool\n  vars t : Toggle\n  axioms\n    [l1] lit?(off) = false\n    [l2] lit?(on(t)) = true\nend\n"

// incompleteCheckSrc omits the f(up(...)) case, so the static and
// dynamic completeness checks must both flag it.
const incompleteCheckSrc = "spec Hole\n  uses Bool\n  ops\n    mk : -> Hole\n    up : Hole -> Hole\n    f : Hole -> Bool\n  vars x : Hole\n  axioms\n    [f1] f(mk) = true\nend\n"

func newTestServer(t testing.TB, cfg serve.Config, extra ...string) *httptest.Server {
	t.Helper()
	srv, err := serve.New(cfg, extra...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// newTestServerFrom mounts an already-built server whose lifecycle the
// test manages itself (the shutdown test closes it mid-test).
func newTestServerFrom(t testing.TB, srv *serve.Server) *httptest.Server {
	t.Helper()
	return httptest.NewServer(srv.Handler())
}

func do(t testing.TB, ts *httptest.Server, method, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("body differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestE2EEndpoints drives every endpoint through real HTTP: happy paths
// against the shipped Queue/Stack/Symboltable/Array specs, and each
// error path with its own status code and golden body. The default fuel
// is raised far beyond what the deadline case's 30 ms can spend, so only
// its deadline can end spin(go); the fuel case sets its own fuel.
func TestE2EEndpoints(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 2, Timeout: 0, Fuel: 1 << 30}, loopSrc)
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		golden   string
	}{
		{
			name:     "normalize queue",
			method:   "POST",
			path:     "/v1/normalize",
			body:     `{"spec":"Queue","term":"front(add(add(new, 'x), 'y))"}`,
			wantCode: 200,
			golden:   "normalize_queue.json",
		},
		{
			name:     "normalize stack",
			method:   "POST",
			path:     "/v1/normalize",
			body:     `{"spec":"Stack","term":"isNewstack?(pop(push(newstack, empty)))"}`,
			wantCode: 200,
			golden:   "normalize_stack.json",
		},
		{
			name:     "normalize symboltable",
			method:   "POST",
			path:     "/v1/normalize",
			body:     `{"spec":"Symboltable","term":"retrieve(add(init, 'i, 'a), 'i)"}`,
			wantCode: 200,
			golden:   "normalize_symboltable.json",
		},
		{
			name:     "normalize array",
			method:   "POST",
			path:     "/v1/normalize",
			body:     `{"spec":"Array","term":"read(assign(assign(empty, 'i, 'a), 'j, 'b), 'i)"}`,
			wantCode: 200,
			golden:   "normalize_array.json",
		},
		{
			name:     "normalize with trace",
			method:   "POST",
			path:     "/v1/normalize",
			body:     `{"spec":"Nat","term":"addN(succ(zero), zero)","trace":true}`,
			wantCode: 200,
			golden:   "normalize_trace.json",
		},
		{
			name:     "unknown spec is 404",
			method:   "POST",
			path:     "/v1/normalize",
			body:     `{"spec":"Ghost","term":"x"}`,
			wantCode: 404,
			golden:   "normalize_unknown_spec.json",
		},
		{
			name:     "malformed term is 400 with position",
			method:   "POST",
			path:     "/v1/normalize",
			body:     `{"spec":"Queue","term":"front(add(new,"}`,
			wantCode: 400,
			golden:   "normalize_bad_term.json",
		},
		{
			name:     "invalid JSON is 400",
			method:   "POST",
			path:     "/v1/normalize",
			body:     `{"spec": Queue}`,
			wantCode: 400,
			golden:   "normalize_bad_json.json",
		},
		{
			name:     "fuel exhaustion is 422",
			method:   "POST",
			path:     "/v1/normalize",
			body:     `{"spec":"Nat","term":"addN(succ(succ(succ(zero))), succ(zero))","fuel":2}`,
			wantCode: 422,
			golden:   "normalize_fuel.json",
		},
		{
			name:     "deadline is 504",
			method:   "POST",
			path:     "/v1/normalize",
			body:     `{"spec":"Loop","term":"spin(go)","timeout_ms":30}`,
			wantCode: 504,
			golden:   "normalize_deadline.json",
		},
		{
			name:     "check good spec",
			method:   "POST",
			path:     "/v1/check",
			body:     `{"source":` + jsonString(goodCheckSrc) + `,"depth":3}`,
			wantCode: 200,
			golden:   "check_good.json",
		},
		{
			name:     "check incomplete spec",
			method:   "POST",
			path:     "/v1/check",
			body:     `{"source":` + jsonString(incompleteCheckSrc) + `,"depth":3}`,
			wantCode: 200,
			golden:   "check_incomplete.json",
		},
		{
			name:     "check syntax error is 400 with position",
			method:   "POST",
			path:     "/v1/check",
			body:     `{"source":"spec Broken\n  ops\n    f : -> \nend\n"}`,
			wantCode: 400,
			golden:   "check_syntax_error.json",
		},
		{
			name:     "check empty source is 400",
			method:   "POST",
			path:     "/v1/check",
			body:     `{"source":"  "}`,
			wantCode: 400,
			golden:   "check_empty.json",
		},
		{
			name:     "specs listing",
			method:   "GET",
			path:     "/v1/specs",
			body:     "",
			wantCode: 200,
			golden:   "specs.json",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, ts, tc.method, tc.path, tc.body)
			if code != tc.wantCode {
				t.Fatalf("status = %d, want %d; body:\n%s", code, tc.wantCode, body)
			}
			checkGolden(t, tc.golden, body)
		})
	}
}

// TestE2ECacheWarm pins the hit path: the second identical request is
// answered from the cache, flagged cached:true, with the cold run's
// step count echoed unchanged.
func TestE2ECacheWarm(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 2})
	body := `{"spec":"Queue","term":"front(remove(add(add(add(new, 'a), 'b), 'c)))"}`
	code, cold := do(t, ts, "POST", "/v1/normalize", body)
	if code != 200 {
		t.Fatalf("cold status = %d: %s", code, cold)
	}
	checkGolden(t, "normalize_cold.json", cold)
	code, warm := do(t, ts, "POST", "/v1/normalize", body)
	if code != 200 {
		t.Fatalf("warm status = %d: %s", code, warm)
	}
	checkGolden(t, "normalize_warm.json", warm)
	// A differently spelled but structurally equal term shares the
	// interned pointer, so it hits the same entry.
	code, respelled := do(t, ts, "POST", "/v1/normalize",
		`{"spec":"Queue","term":"front( remove( add( add( add( new, 'a ), 'b ), 'c ) ) )"}`)
	if code != 200 || !strings.Contains(respelled, `"cached": true`) {
		t.Errorf("respelled term missed the cache: %d %s", code, respelled)
	}
}

// TestE2EMethodsAndMetrics covers routing errors and the metrics page's
// shape (its counters move, so no golden — substring pins only).
func TestE2EMethodsAndMetrics(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 2})
	if code, _ := do(t, ts, "GET", "/v1/normalize", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/normalize = %d, want 405", code)
	}
	if code, _ := do(t, ts, "POST", "/metrics", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", code)
	}
	if code, _ := do(t, ts, "GET", "/v1/nope", ""); code != http.StatusNotFound {
		t.Errorf("GET /v1/nope = %d, want 404", code)
	}

	if code, _ := do(t, ts, "POST", "/v1/normalize",
		`{"spec":"Queue","term":"isEmpty?(new)"}`); code != 200 {
		t.Fatalf("normalize = %d", code)
	}
	code, page := do(t, ts, "GET", "/metrics", "")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		`adt_requests_total{endpoint="normalize",code="200"} 1`,
		"adt_in_flight 0",
		"adt_cache_hits_total 0",
		"adt_cache_misses_total 1",
		"adt_engine_steps_total",
		"adt_engine_rule_fires_total",
		// The default serve configuration runs on the compiled tier, so
		// the one normalize above must land there and nothing may fall
		// back to the interpreter.
		"adt_engine_compiled_evals_total 1",
		"adt_engine_interp_evals_total 0",
		"adt_interned_terms",
		`adt_request_duration_seconds_count{endpoint="normalize"} 1`,
		`adt_request_duration_seconds_bucket{endpoint="normalize",le="+Inf"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q:\n%s", want, page)
		}
	}
}

// jsonString quotes a Go string as a JSON string literal.
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
