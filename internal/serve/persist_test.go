package serve_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algspec/internal/serve"
)

func normalizeBody(t testing.TB, spec, term, version string) string {
	t.Helper()
	req := map[string]any{"spec": spec, "term": term}
	if version != "" {
		req["version"] = version
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodeNormalize(t testing.TB, body string) serve.NormalizeResponse {
	t.Helper()
	var resp serve.NormalizeResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad normalize body %q: %v", body, err)
	}
	return resp
}

// TestRestartWarm is the durability acceptance test: a server that
// normalized a term and shut down must answer the same
// request as a cache hit immediately after restart — the cold path is
// paid once per cluster lifetime, not once per process.
func TestRestartWarm(t *testing.T) {
	dir := t.TempDir()
	term := "front(add(add(new, 'x), 'y))"

	srv1, err := serve.New(serve.Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestServerFrom(t, srv1)
	code, body := do(t, ts1, "POST", "/v1/normalize", normalizeBody(t, "Queue", term, ""))
	if code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", code, body)
	}
	first := decodeNormalize(t, body)
	if first.Cached {
		t.Fatalf("first request claims to be cached: %s", body)
	}
	ts1.Close()
	srv1.Close()

	srv2, err := serve.New(serve.Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServerFrom(t, srv2)
	defer func() { ts2.Close(); srv2.Close() }()
	code, body = do(t, ts2, "POST", "/v1/normalize", normalizeBody(t, "Queue", term, ""))
	if code != http.StatusOK {
		t.Fatalf("post-restart request: status %d: %s", code, body)
	}
	second := decodeNormalize(t, body)
	if !second.Cached {
		t.Fatalf("first post-restart request missed the cache: %s", body)
	}
	if second.NormalForm != first.NormalForm || second.Steps != first.Steps {
		t.Fatalf("restarted answer diverged: %+v vs %+v", second, first)
	}
}

// TestRestartWarmFromWALOnly covers the crash path: the first server
// never closes, so the second boot replays the WAL of a live process.
func TestRestartWarmFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	term := "front(add(add(new, 'q), 'r))"

	srv1, err := serve.New(serve.Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestServerFrom(t, srv1)
	t.Cleanup(func() { ts1.Close(); srv1.Close() })
	if code, body := do(t, ts1, "POST", "/v1/normalize", normalizeBody(t, "Queue", term, "")); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}

	srv2, err := serve.New(serve.Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServerFrom(t, srv2)
	defer func() { ts2.Close(); srv2.Close() }()
	code, body := do(t, ts2, "POST", "/v1/normalize", normalizeBody(t, "Queue", term, ""))
	if code != http.StatusOK || !decodeNormalize(t, body).Cached {
		t.Fatalf("WAL replay did not warm the cache (status %d): %s", code, body)
	}
}

// TestRestartWarmUpload: an uploaded version and its cache entries
// survive a restart together — the persisted spec source re-registers
// under the same content address, so persisted NF entries for it
// resolve.
func TestRestartWarmUpload(t *testing.T) {
	dir := t.TempDir()

	srv1, err := serve.New(serve.Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestServerFrom(t, srv1)
	src, _ := json.Marshal(goodCheckSrc)
	code, body := do(t, ts1, "POST", "/v1/specs", fmt.Sprintf(`{"source":%s}`, src))
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	var up serve.SpecUploadResponse
	if err := json.Unmarshal([]byte(body), &up); err != nil {
		t.Fatal(err)
	}
	code, body = do(t, ts1, "POST", "/v1/normalize", normalizeBody(t, "Toggle", "lit?(on(off))", up.Version))
	if code != http.StatusOK {
		t.Fatalf("versioned normalize: status %d: %s", code, body)
	}
	ts1.Close()
	srv1.Close()

	srv2, err := serve.New(serve.Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServerFrom(t, srv2)
	defer func() { ts2.Close(); srv2.Close() }()
	code, body = do(t, ts2, "POST", "/v1/normalize", normalizeBody(t, "Toggle", "lit?(on(off))", up.Version))
	if code != http.StatusOK {
		t.Fatalf("versioned normalize after restart: status %d: %s", code, body)
	}
	resp := decodeNormalize(t, body)
	if !resp.Cached || resp.NormalForm != "true" || resp.Version != up.Version {
		t.Fatalf("restarted versioned answer wrong: %s", body)
	}
}

// corruptOneByte flips one byte in the middle of the file.
func corruptOneByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty, nothing to corrupt", path)
	}
	i := len(data) / 2
	data[i] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptStoreColdStart: flipping a single byte anywhere in the
// persisted store must be detected at boot — the server starts cold
// (correctness over warmth), serves normally, and raises
// adt_persist_errors_total so an operator sees the corruption.
func TestCorruptStoreColdStart(t *testing.T) {
	t.Run("nf.wal", func(t *testing.T) {
		dir := t.TempDir()
		term := "front(add(add(new, 'x), 'y))"

		srv1, err := serve.New(serve.Config{PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts1 := newTestServerFrom(t, srv1)
		if code, body := do(t, ts1, "POST", "/v1/normalize", normalizeBody(t, "Queue", term, "")); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		ts1.Close()
		defer srv1.Close()
		corruptOneByte(t, filepath.Join(dir, "nf.wal"))

		srv2, err := serve.New(serve.Config{PersistDir: dir})
		if err != nil {
			t.Fatalf("boot over a corrupt store must fall back cold, got error: %v", err)
		}
		ts2 := newTestServerFrom(t, srv2)
		defer func() { ts2.Close(); srv2.Close() }()

		_, page := do(t, ts2, "GET", "/metrics", "")
		if got := metricValue(t, page, "adt_persist_errors_total"); got == 0 {
			t.Fatalf("corruption in nf.wal went uncounted:\n%s", page)
		}
		if got := metricValue(t, page, "adt_warm_entries"); got != 0 {
			t.Fatalf("%d entr(ies) loaded from a corrupt nf.wal", got)
		}
		code, body := do(t, ts2, "POST", "/v1/normalize", normalizeBody(t, "Queue", term, ""))
		if code != http.StatusOK || decodeNormalize(t, body).Cached {
			t.Fatalf("cold fallback broken (status %d): %s", code, body)
		}
	})

	// An uploaded source edited so that it still parses no longer hashes
	// to its file name: registering it would list a version nobody
	// uploaded, so boot must count the mismatch and skip the file.
	t.Run("spec source", func(t *testing.T) {
		dir := t.TempDir()
		srv1, err := serve.New(serve.Config{PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts1 := newTestServerFrom(t, srv1)
		src, _ := json.Marshal(goodCheckSrc)
		code, body := do(t, ts1, "POST", "/v1/specs", fmt.Sprintf(`{"source":%s}`, src))
		if code != http.StatusCreated {
			t.Fatalf("upload: status %d: %s", code, body)
		}
		var up serve.SpecUploadResponse
		if err := json.Unmarshal([]byte(body), &up); err != nil {
			t.Fatal(err)
		}
		ts1.Close()
		srv1.Close()

		path := filepath.Join(dir, "specs", strings.TrimPrefix(up.Version, "sha256:")+".spec")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edited := strings.Replace(string(data), "[l1]", "[m1]", 1)
		if edited == string(data) {
			t.Fatalf("no [l1] label to edit in %s:\n%s", path, data)
		}
		if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}

		srv2, err := serve.New(serve.Config{PersistDir: dir})
		if err != nil {
			t.Fatalf("boot over an edited spec source must fall back cold, got error: %v", err)
		}
		ts2 := newTestServerFrom(t, srv2)
		defer func() { ts2.Close(); srv2.Close() }()
		_, page := do(t, ts2, "GET", "/metrics", "")
		if got := metricValue(t, page, "adt_persist_errors_total"); got == 0 {
			t.Fatalf("edited spec source went uncounted:\n%s", page)
		}
		_, body = do(t, ts2, "GET", "/v1/specs", "")
		var list serve.SpecsResponse
		if err := json.Unmarshal([]byte(body), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Versions) != 0 {
			t.Fatalf("edited spec source registered as %+v", list.Versions)
		}
	})
}

// TestCorruptWALHealsAfterColdStart: a boot that cannot read the WAL
// starts it afresh, so what that process computes is warm at the next
// boot, even if the process crashes (never calls Close) in between.
func TestCorruptWALHealsAfterColdStart(t *testing.T) {
	dir := t.TempDir()
	term := "front(add(add(new, 'heal), 'x))"

	srv1, err := serve.New(serve.Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestServerFrom(t, srv1)
	if code, body := do(t, ts1, "POST", "/v1/normalize", normalizeBody(t, "Queue", "front(add(new, 'w))", "")); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	ts1.Close()
	t.Cleanup(srv1.Close)
	corruptOneByte(t, filepath.Join(dir, "nf.wal"))

	srv2, err := serve.New(serve.Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServerFrom(t, srv2)
	if code, body := do(t, ts2, "POST", "/v1/normalize", normalizeBody(t, "Queue", term, "")); code != http.StatusOK || decodeNormalize(t, body).Cached {
		t.Fatalf("cold boot over a corrupt WAL (status %d): %s", code, body)
	}
	ts2.Close()
	t.Cleanup(srv2.Close) // the crash: the third boot happens before any Close

	srv3, err := serve.New(serve.Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts3 := newTestServerFrom(t, srv3)
	defer func() { ts3.Close(); srv3.Close() }()
	_, page := do(t, ts3, "GET", "/metrics", "")
	if got := metricValue(t, page, "adt_persist_errors_total"); got != 0 {
		t.Errorf("the log written after the cold start is still unreadable: %d error(s)", got)
	}
	code, body := do(t, ts3, "POST", "/v1/normalize", normalizeBody(t, "Queue", term, ""))
	if code != http.StatusOK || !decodeNormalize(t, body).Cached {
		t.Fatalf("entry computed after the cold start was lost (status %d): %s", code, body)
	}
}

// TestWarmFromCorpus: Config.Warm alone (no persisted store) must make
// the first golden-corpus request a cache hit.
func TestWarmFromCorpus(t *testing.T) {
	ts := newTestServer(t, serve.Config{Warm: true})
	code, body := do(t, ts, "POST", "/v1/normalize",
		normalizeBody(t, "Queue", "front(add(add(new, 'a), 'b))", ""))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !decodeNormalize(t, body).Cached {
		t.Fatalf("corpus warming missed the golden battery: %s", body)
	}
}

// dupSrc doubles its tree at every step: sq(succ^n(zero), leaf) takes
// n+1 steps, and its normal form prints as 12·2^n - 8 bytes.
const dupSrc = `
spec Dup
  uses Nat
  sorts Tree
  ops
    leaf : -> Tree
    pair : Tree, Tree -> Tree
    sq   : Nat, Tree -> Tree
  vars
    n : Nat
    x : Tree
  axioms
    [s0] sq(zero, x) = x
    [s1] sq(succ(n), x) = sq(n, pair(x, x))
end
`

func dupTerm(n int) string {
	return "sq(" + strings.Repeat("succ(", n) + "zero" + strings.Repeat(")", n) + ", leaf)"
}

// TestWALLineCap: the WAL writer and reader share one line cap. An
// answer longer than a megabyte (n = 17, 1.57 MB) is written and read
// back; one past the cap (n = 18, 3.1 MB) is served and cached but not
// appended, and counted once as dropped. Either way an unrelated entry
// comes back warm and no persist error is counted.
func TestWALLineCap(t *testing.T) {
	dir := t.TempDir()
	queue := "front(add(add(new, 'u), 'v))"
	boot := func() (*serve.Server, *httptest.Server, string) {
		srv, err := serve.New(serve.Config{Workers: 2, PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := newTestServerFrom(t, srv)
		return srv, ts, uploadSpec(t, ts, dupSrc)
	}
	ask := func(ts *httptest.Server, spec, term, version string) serve.NormalizeResponse {
		t.Helper()
		code, body := do(t, ts, "POST", "/v1/normalize", normalizeBody(t, spec, term, version))
		if code != http.StatusOK {
			t.Fatalf("%s %.60s: status %d: %.200s", spec, term, code, body)
		}
		return decodeNormalize(t, body)
	}

	srv, ts, ver := boot()
	ask(ts, "Queue", queue, "")
	if got := ask(ts, "Dup", dupTerm(17), ver); got.Cached || len(got.NormalForm) != 12<<17-8 {
		t.Fatalf("n = 17: cached %v, %d bytes", got.Cached, len(got.NormalForm))
	}
	ts.Close()
	srv.Close()

	srv, ts, ver = boot()
	if !ask(ts, "Queue", queue, "").Cached || !ask(ts, "Dup", dupTerm(17), ver).Cached {
		t.Fatal("an entry did not come back warm after a restart")
	}
	records := scrapeMetric(t, ts, "adt_persist_wal_records_total")
	if got := ask(ts, "Dup", dupTerm(18), ver); got.Cached || len(got.NormalForm) != 12<<18-8 {
		t.Fatalf("n = 18: cached %v, %d bytes", got.Cached, len(got.NormalForm))
	}
	if !ask(ts, "Dup", dupTerm(18), ver).Cached {
		t.Fatal("n = 18 was not cached")
	}
	if n := scrapeMetric(t, ts, "adt_persist_wal_records_total"); n != records {
		t.Errorf("n = 18 was appended: %d WAL records, was %d", n, records)
	}
	if n := scrapeMetric(t, ts, "adt_persist_dropped_total"); n != 1 {
		t.Errorf("adt_persist_dropped_total = %d, want 1", n)
	}
	ts.Close()
	srv.Close()

	srv, ts, _ = boot()
	defer func() { ts.Close(); srv.Close() }()
	if !ask(ts, "Queue", queue, "").Cached {
		t.Error("the unrelated entry came back cold")
	}
	if n := scrapeMetric(t, ts, "adt_persist_errors_total"); n != 0 {
		t.Errorf("adt_persist_errors_total = %d, want 0", n)
	}
}

// TestHeaderlessWALColdStart: a WAL without the format header was
// written when outermost answers could be logged under innermost keys,
// and a record does not say which strategy computed it. Boot must not
// replay it: the WAL counts as unreadable, is started afresh, and the
// boot after that reads the new log warm.
func TestHeaderlessWALColdStart(t *testing.T) {
	dir := t.TempDir()
	term := "isEmpty?(add(remove(new), 'a))"
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The outermost answer, logged as the old sharing logged it.
	payload, err := json.Marshal(map[string]any{
		"version": srv.Registry().Base().ID, "spec": "Queue", "sort": "Bool",
		"term": term, "nf": "false", "steps": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	sum := sha256.Sum256(payload)
	line := hex.EncodeToString(sum[:8]) + " " + string(payload) + "\n"
	if err := os.WriteFile(filepath.Join(dir, "nf.wal"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}

	for boot := 1; boot <= 2; boot++ {
		srv, err := serve.New(serve.Config{PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := newTestServerFrom(t, srv)
		wantErrs, wantWarm := int64(1), int64(0)
		if boot == 2 {
			wantErrs, wantWarm = 0, 1
		}
		if got := scrapeMetric(t, ts, "adt_persist_errors_total"); got != wantErrs {
			t.Errorf("boot %d: adt_persist_errors_total = %d, want %d", boot, got, wantErrs)
		}
		if got := scrapeMetric(t, ts, "adt_warm_entries"); got != wantWarm {
			t.Errorf("boot %d: adt_warm_entries = %d, want %d", boot, got, wantWarm)
		}
		if got := normalizeStrat(t, ts, "Queue", "", term, "innermost"); got.NormalForm != "error" || got.Cached != (boot == 2) {
			t.Errorf("boot %d: innermost answered %s (cached %v), want error (cached %v)",
				boot, got.NormalForm, got.Cached, boot == 2)
		}
		ts.Close()
		srv.Close()
	}
}

// TestEmptyWALIsNotAnError: a missing WAL and an empty one both boot
// cold with no persist error.
func TestEmptyWALIsNotAnError(t *testing.T) {
	for _, empty := range []bool{false, true} {
		dir := t.TempDir()
		if empty {
			if err := os.WriteFile(filepath.Join(dir, "nf.wal"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := serve.New(serve.Config{PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := newTestServerFrom(t, srv)
		if got := scrapeMetric(t, ts, "adt_persist_errors_total"); got != 0 {
			t.Errorf("empty WAL file %v: adt_persist_errors_total = %d, want 0", empty, got)
		}
		ts.Close()
		srv.Close()
	}
}
