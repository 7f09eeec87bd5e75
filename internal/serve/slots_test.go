package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"algspec/internal/faultinject"
	"algspec/internal/serve"
)

// waitHeld blocks until n requests have taken a normalization slot: the
// serve.pool.delay point is hit once per slot taken, before the engine
// runs, and its armed delay then holds the slot.
func waitHeld(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for faultinject.Snapshot()["serve.pool.delay"].Hits < n {
		if time.Now().After(deadline) {
			t.Fatalf("no request took a slot within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// answer is one normalize response, collected off the test goroutine.
type answer struct {
	code int
	body string
	err  error
}

func postNormalize(ts *httptest.Server, body string) answer {
	resp, err := http.Post(ts.URL+"/v1/normalize", "application/json", strings.NewReader(body))
	if err != nil {
		return answer{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return answer{code: resp.StatusCode, body: string(data), err: err}
}

// TestSlotsQueuedDeadline: a request waiting for a slot gives up when
// its own deadline passes, not when a slot frees. With the only slot
// held for 200ms by an injected delay, a cold request with a 50ms
// deadline answers 504 well inside 150ms and never reaches the engine.
func TestSlotsQueuedDeadline(t *testing.T) {
	ts := newTestServer(t, serve.Config{Workers: 1})
	arm(t, faultinject.Plan{"serve.pool.delay": {Every: 1, Delay: 200 * time.Millisecond}})

	held := make(chan answer, 1)
	go func() { held <- postNormalize(ts, `{"spec":"Queue","term":"front(add(new, 'hold))"}`) }()
	waitHeld(t, 1)

	start := time.Now()
	code, body := do(t, ts, "POST", "/v1/normalize", `{"spec":"Queue","term":"front(add(new, 'late))","timeout_ms":50}`)
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout || !strings.Contains(body, "request timed out before a worker was free") {
		t.Fatalf("queued request = %d: %s", code, body)
	}
	if elapsed >= 150*time.Millisecond {
		t.Errorf("queued 50ms request answered after %s, want < 150ms", elapsed)
	}
	if a := <-held; a.err != nil || a.code != http.StatusOK {
		t.Fatalf("slot-holding request = %d %v: %s", a.code, a.err, a.body)
	}
	_, page := do(t, ts, "GET", "/metrics", "")
	if evals := metricValue(t, page, "adt_engine_compiled_evals_total") + metricValue(t, page, "adt_engine_interp_evals_total"); evals != 1 {
		t.Errorf("engine evaluations = %d, want 1 (the timed-out request must not reach the engine)", evals)
	}
}

// TestSlotsDrainOnClose: Close drains what it admitted all the way to
// the store. A request holding the only slot when Close begins still
// answers 200, Close returns only after its normal form is in the WAL,
// requests after Close get 503, and a server restarted from the
// directory answers the term warm.
func TestSlotsDrainOnClose(t *testing.T) {
	dir := t.TempDir()
	term := "front(add(add(new, 'drain), 'x))"
	srv1, err := serve.New(serve.Config{Workers: 1, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestServerFrom(t, srv1)
	defer ts1.Close()
	arm(t, faultinject.Plan{"serve.pool.delay": {Every: 1, Delay: 100 * time.Millisecond}})

	first := make(chan answer, 1)
	body := normalizeBody(t, "Queue", term, "")
	go func() { first <- postNormalize(ts1, body) }()
	waitHeld(t, 1)
	srv1.Close()

	a := <-first
	if a.err != nil || a.code != http.StatusOK || decodeNormalize(t, a.body).Cached {
		t.Fatalf("request admitted before Close = %d %v: %s", a.code, a.err, a.body)
	}
	code, body := do(t, ts1, "POST", "/v1/normalize", normalizeBody(t, "Queue", "front(add(new, 'after))", ""))
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "shutting down") {
		t.Fatalf("request after Close = %d: %s", code, body)
	}
	faultinject.Disarm()

	srv2, err := serve.New(serve.Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServerFrom(t, srv2)
	defer func() { ts2.Close(); srv2.Close() }()
	code, body = do(t, ts2, "POST", "/v1/normalize", normalizeBody(t, "Queue", term, ""))
	if code != http.StatusOK || !decodeNormalize(t, body).Cached {
		t.Fatalf("restart after a draining Close missed the admitted request's entry (status %d): %s", code, body)
	}
}
