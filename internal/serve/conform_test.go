package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algspec/internal/conform"
	"algspec/internal/core"
	"algspec/internal/refimpl"
	"algspec/internal/serve"
	"algspec/internal/sig"
	"algspec/internal/speclib"
)

// shippedSpecs reads the specs/ directory the conform e2e battery runs
// over (Counter, Graph, PQueue — the specs with bundled references).
func shippedSpecs(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("globbing shipped specs: %v (%d files)", err, len(files))
	}
	srcs := make([]string, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = string(data)
	}
	return srcs
}

// clientEnv mirrors the server's environment on the client side of the
// wire, the way a real implementer would hold their own copy of the
// spec.
func clientEnv(t testing.TB) *core.Env {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	env.MustLoad(shippedSpecs(t)...)
	return env
}

// poster sends conform requests over real HTTP and counts the
// exchanges, so tests can reconcile them against the server's books.
func poster(t testing.TB, ts *httptest.Server, count *int) conform.Poster {
	return func(req *conform.Request) (*conform.Response, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		*count++
		hr, err := http.Post(ts.URL+"/v1/conform", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer hr.Body.Close()
		data, err := io.ReadAll(hr.Body)
		if err != nil {
			return nil, err
		}
		if hr.StatusCode/100 != 2 {
			return nil, &conform.HTTPError{Status: hr.StatusCode, Body: strings.TrimSpace(string(data))}
		}
		var resp conform.Response
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
}

// obsFor declares Nat observable where the spec has the sort (Graph
// observes through Bool alone).
func obsFor(env *core.Env, spec string) []string {
	if env.MustGet(spec).Sig.HasSort(sig.Sort("Nat")) {
		return []string{"Nat"}
	}
	return nil
}

// TestConformE2EReferences drives every bundled reference through a
// full wire session: all must pass, and the adt_conform_* books must
// reconcile exactly with what the client saw.
func TestConformE2EReferences(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 2}, shippedSpecs(t)...)
	env := clientEnv(t)
	posts := 0
	sessions := 0
	for name, build := range refimpl.Builders() {
		sp := env.MustGet(name)
		v, err := conform.Drive(poster(t, ts, &posts), &conform.Request{
			Spec: name, ObserveSorts: obsFor(env, name),
		}, conform.NewModelClient(sp, build(sp)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sessions++
		if !v.Pass {
			t.Errorf("%s: reference failed conformance: %d of %d disagree (counterexample %+v)",
				name, v.FailureCount, v.Checked, v.Counterexample)
		}
		if v.Checked == 0 {
			t.Errorf("%s: verdict checked zero programs", name)
		}
	}

	_, page := do(t, ts, "GET", "/metrics", "")
	if got := metricValue(t, page, "adt_conform_sessions_opened_total"); got != int64(sessions) {
		t.Errorf("opened = %d, want %d", got, sessions)
	}
	if got := metricValue(t, page, "adt_conform_pass_total"); got != int64(sessions) {
		t.Errorf("pass = %d, want %d", got, sessions)
	}
	if got := metricValue(t, page, "adt_conform_fail_total"); got != 0 {
		t.Errorf("fail = %d, want 0", got)
	}
	if got := metricValue(t, page, "adt_conform_sessions_active"); got != 0 {
		t.Errorf("active = %d, want 0 (all sessions closed)", got)
	}
	if got := metricValue(t, page, "adt_conform_programs_total"); got == 0 {
		t.Error("programs = 0, want > 0")
	}
	// Every wire exchange this test made (including the /metrics-invisible
	// opens and closes) is booked on the request counter, and nothing else
	// touched the endpoint: the books must match the client's count.
	if got, _ := parsePage(t, page).Value("adt_requests_total", map[string]string{"endpoint": "conform", "code": "200"}); got != float64(posts) {
		t.Errorf("adt_requests_total conform/200 = %g, want %d (client-side count)", got, posts)
	}
}

// TestConformE2EMutants requires the oracle endpoint to kill every
// single-operation mutant of every reference, with a minimal
// counterexample, and books one failed verdict per mutant.
func TestConformE2EMutants(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 2}, shippedSpecs(t)...)
	env := clientEnv(t)
	posts := 0
	mutants := 0
	for name := range refimpl.Builders() {
		sp := env.MustGet(name)
		for _, m := range refimpl.Mutants(sp) {
			mutants++
			v, err := conform.Drive(poster(t, ts, &posts), &conform.Request{
				Spec: name, ObserveSorts: obsFor(env, name),
			}, conform.NewModelClient(sp, m.Impl))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.Op, err)
			}
			if v.Pass {
				t.Errorf("%s: mutant %s survived the conformance oracle", name, m.Op)
				continue
			}
			ce := v.Counterexample
			if ce == nil {
				t.Errorf("%s/%s: failing verdict has no counterexample", name, m.Op)
				continue
			}
			if !strings.Contains(ce.Program, m.Op) {
				t.Errorf("%s/%s: counterexample %q does not mention the mutated operation", name, m.Op, ce.Program)
			}
		}
	}
	if mutants < 12 {
		t.Fatalf("only %d mutants driven; expected at least 12", mutants)
	}

	_, page := do(t, ts, "GET", "/metrics", "")
	if got := metricValue(t, page, "adt_conform_fail_total"); got != int64(mutants) {
		t.Errorf("fail = %d, want %d (one per mutant)", got, mutants)
	}
	if got := metricValue(t, page, "adt_conform_pass_total"); got != 0 {
		t.Errorf("pass = %d, want 0", got)
	}
	if got := metricValue(t, page, "adt_conform_sessions_active"); got != 0 {
		t.Errorf("active = %d, want 0", got)
	}
}

// TestConformProtocol pins the wire contract's edges: unknown spec and
// session, bad observe sorts, round skew, replay idempotency and
// idempotent close.
func TestConformProtocol(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 2}, shippedSpecs(t)...)

	post := func(body string) (int, string) {
		return do(t, ts, "POST", "/v1/conform", body)
	}

	if code, _ := post(`{"action":"open","spec":"NoSuchSpec"}`); code != http.StatusNotFound {
		t.Errorf("open unknown spec = %d, want 404", code)
	}
	if code, _ := post(`{"action":"open","spec":"Queue","observe_sorts":["NoSuchSort"]}`); code != http.StatusBadRequest {
		t.Errorf("open bad observe sort = %d, want 400", code)
	}
	if code, _ := post(`{"action":"observe","session":"cs-999","round":1}`); code != http.StatusNotFound {
		t.Errorf("observe unknown session = %d, want 404", code)
	}
	if code, _ := post(`{"action":"fondle"}`); code != http.StatusBadRequest {
		t.Errorf("unknown action = %d, want 400", code)
	}

	// Open a real session and walk its protocol edges.
	code, body := post(`{"action":"open","spec":"Queue"}`)
	if code != http.StatusOK {
		t.Fatalf("open = %d: %s", code, body)
	}
	var opened conform.Response
	if err := json.Unmarshal([]byte(body), &opened); err != nil {
		t.Fatal(err)
	}
	if opened.Session == "" || len(opened.Programs) == 0 {
		t.Fatalf("open response lacks session or programs: %s", body)
	}
	if opened.Version == "" {
		t.Error("open response is not pinned to a registry version")
	}

	// Answer the first round through the engine client (the observations
	// must be genuine, or the verdict rounds would diverge).
	env := clientEnv(t)
	eval, err := conform.NewEngineClient(env, "Queue")
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]conform.Observation, 0, len(opened.Programs))
	for _, p := range opened.Programs {
		o, err := eval.Observe(p)
		if err != nil {
			t.Fatal(err)
		}
		o.ID = p.ID
		obs = append(obs, o)
	}
	req := conform.Request{Action: "observe", Session: opened.Session, Round: opened.Round, Observations: obs}
	reqBody, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}

	// Round skew answers 409 and leaves the session untouched.
	skew := req
	skew.Round = opened.Round + 7
	skewBody, _ := json.Marshal(&skew)
	if code, _ := post(string(skewBody)); code != http.StatusConflict {
		t.Errorf("skewed round = %d, want 409", code)
	}

	code, first := post(string(reqBody))
	if code != http.StatusOK {
		t.Fatalf("observe = %d: %s", code, first)
	}
	// A verbatim retry of the same round (a client retrying a faulted
	// exchange) replays the identical answer.
	code, replay := post(string(reqBody))
	if code != http.StatusOK || replay != first {
		t.Errorf("replayed round: code %d, body equal %v", code, replay == first)
	}

	// Close is idempotent, even for sessions that never existed.
	for _, sess := range []string{opened.Session, opened.Session, "cs-424242"} {
		code, body := post(`{"action":"close","session":"` + sess + `"}`)
		if code != http.StatusOK || !strings.Contains(body, `"closed": true`) {
			t.Errorf("close %s = %d: %s", sess, code, body)
		}
	}

	_, page := do(t, ts, "GET", "/metrics", "")
	if got := metricValue(t, page, "adt_conform_sessions_active"); got != 0 {
		t.Errorf("active = %d, want 0 after close", got)
	}
}
