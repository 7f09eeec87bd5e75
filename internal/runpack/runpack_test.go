package runpack

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algspec/internal/loadgen"
	"algspec/internal/serve"
	"algspec/internal/speclib"
)

// queueWorkload builds a small normalize-only battery over Queue with
// golden oracles computed offline, the way the generator does.
func queueWorkload(t *testing.T) []loadgen.Request {
	t.Helper()
	env := speclib.BaseEnv()
	terms := []string{
		"front(add(add(new, 'x), 'y))", // FIFO: the oldest element
		"isEmpty?(remove(add(new, 'a)))",
		"front(add(new, 'z))",
		"front(remove(add(add(add(new, 'a), 'b), 'c)))",
	}
	reqs := make([]loadgen.Request, len(terms))
	for i, src := range terms {
		reqs[i] = loadgen.Request{
			ID: i, Kind: loadgen.KindNormalize, Spec: "Queue", Term: src,
			WantNF: env.MustEval("Queue", src).String(),
		}
	}
	return reqs
}

// recordPack runs the workload against a stock server and writes the
// resulting pack into a temp dir, returning the pack and its directory.
func recordPack(t *testing.T, reqs []loadgen.Request) (*Result, string) {
	t.Helper()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	rep, err := loadgen.Run(loadgen.Config{
		BaseURL: ts.URL, Seed: 7, Workers: 1, Workload: reqs, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	dir := t.TempDir()
	m := Manifest{
		Kind: KindLoad, Tool: "runpack test",
		BaseVersion: srv.Registry().Base().ID,
		Seed:        7, Mix: "normalize=1", Workers: 1, RetryBudget: 3,
	}
	if err := Write(dir, m, rep, string(metrics)); err != nil {
		t.Fatal(err)
	}
	res, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("fresh pack fails integrity: %v", res.Problems)
	}
	return res, dir
}

// TestWriteVerifyRoundtrip: a pack written from a real run verifies
// clean — digests, books, metrics monotonicity and golden NFs all hold.
func TestWriteVerifyRoundtrip(t *testing.T) {
	_, dir := recordPack(t, queueWorkload(t))
	res, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("verify found problems in a fresh pack:\n%v", res.Problems)
	}
	if res.Manifest.Requests != 4 {
		t.Errorf("manifest records %d requests, want 4", res.Manifest.Requests)
	}
	if len(res.Workload) != 4 || len(res.Outcomes) != 4 {
		t.Errorf("parsed %d workload / %d outcomes, want 4/4", len(res.Workload), len(res.Outcomes))
	}
}

// TestRegressIdenticalOnCleanReplay: replaying a pack against a fresh
// stock server reproduces it exactly.
func TestRegressIdenticalOnCleanReplay(t *testing.T) {
	res, _ := recordPack(t, queueWorkload(t))
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	diff, err := Regress(res, RegressConfig{BaseURL: ts.URL, CurrentBaseVersion: srv.Registry().Base().ID})
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Identical {
		t.Fatalf("clean replay diverged:\n%s", strings.Join(diff.Lines, "\n"))
	}
}

// TestRegressDetectsPerturbedAxiom is the acceptance criterion: perturb
// a single axiom in one library spec (Queue's front, FIFO -> LIFO),
// replay the pack against a server built from the perturbed library,
// and the diff must name the spec and the first divergent term.
func TestRegressDetectsPerturbedAxiom(t *testing.T) {
	res, _ := recordPack(t, queueWorkload(t))

	const goodAxiom = "[4] front(add(q, i)) = if isEmpty?(q) then i else front(q)"
	const badAxiom = "[4] front(add(q, i)) = i"
	perturbed := make([]string, len(speclib.Sources))
	found := false
	for i, src := range speclib.Sources {
		if strings.Contains(src, goodAxiom) {
			src = strings.Replace(src, goodAxiom, badAxiom, 1)
			found = true
		}
		perturbed[i] = src
	}
	if !found {
		t.Fatalf("library no longer contains the Queue front axiom %q", goodAxiom)
	}

	srv, err := serve.NewWithSources(serve.Config{}, perturbed)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	diff, err := Regress(res, RegressConfig{BaseURL: ts.URL, CurrentBaseVersion: srv.Registry().Base().ID})
	if err != nil {
		t.Fatal(err)
	}
	if diff.Identical {
		t.Fatal("regress failed to detect a perturbed axiom")
	}
	joined := strings.Join(diff.Lines, "\n")
	if !strings.Contains(diff.Lines[0], "first divergence") {
		t.Errorf("diff does not lead with the first divergence:\n%s", joined)
	}
	if !strings.Contains(joined, "Queue") {
		t.Errorf("diff does not name the spec:\n%s", joined)
	}
	if !strings.Contains(joined, "front(add(add(new, 'x), 'y))") {
		t.Errorf("diff does not name the first divergent term:\n%s", joined)
	}
	if !strings.Contains(joined, `"'x"`) || !strings.Contains(joined, `"'y"`) {
		t.Errorf("diff does not show recorded vs replayed normal forms:\n%s", joined)
	}
	if diff.Note == "" || !strings.Contains(diff.Note, "spec library changed") {
		t.Errorf("diff note does not flag the changed library: %q", diff.Note)
	}
}

// TestVerifyCatchesGoldenNFDrift: a pack whose recorded golden NF no
// longer matches what the current engine computes fails verification
// with a problem naming the workload line — the serverless half of the
// drift gate.
func TestVerifyCatchesGoldenNFDrift(t *testing.T) {
	res, dir := recordPack(t, queueWorkload(t))

	// Forge a pack that is internally consistent (digests recomputed,
	// outcome NFs agreeing with the forged golden) but whose golden NF is
	// not what the engine answers.
	reqs := append([]loadgen.Request(nil), res.Workload...)
	outs := append([]loadgen.RequestOutcome(nil), res.Outcomes...)
	reqs[0].WantNF = "'y" // engine answers 'x
	outs[0].NF = "'y"
	vres, err := Verify(forge(t, res, dir, reqs, outs, res.Metrics))
	if err != nil {
		t.Fatal(err)
	}
	if vres.OK() {
		t.Fatal("verify accepted a pack with a drifted golden NF")
	}
	var hit bool
	for _, p := range vres.Problems {
		if p.File == WorkloadFile && p.Line == 1 && strings.Contains(p.Msg, "golden nf drift") {
			hit = true
		}
	}
	if !hit {
		t.Errorf("no golden-nf-drift problem at %s:1; got: %v", WorkloadFile, vres.Problems)
	}
}

// forge rewrites a recorded pack with the given workload, outcomes and
// metrics snapshot under dir/forged; Write recomputes every digest, so
// only the semantic checks can tell.
func forge(t *testing.T, res *Result, dir string, reqs []loadgen.Request, outs []loadgen.RequestOutcome, metrics string) string {
	t.Helper()
	rep := &loadgen.Report{
		Workload: reqs, Outcomes: outs,
		Success: res.Books.Success, ExpectedFault: res.Books.ExpectedFault,
		RetryExhausted: res.Books.RetryExhausted, Failed: res.Books.Failed,
		Retries: res.Books.Retries, Attempts: res.Books.Attempts,
	}
	forged := filepath.Join(dir, "forged")
	if err := Write(forged, *res.Manifest, rep, metrics); err != nil {
		t.Fatal(err)
	}
	return forged
}

// TestVerifyNamesGarbledMetricsLine: a metrics.txt sample line replaced
// by garbage, in a pack whose digests were recomputed to match, is
// reported at that line.
func TestVerifyNamesGarbledMetricsLine(t *testing.T) {
	res, dir := recordPack(t, queueWorkload(t))
	lines := strings.Split(res.Metrics, "\n")
	at := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "adt_requests_total{") {
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatalf("no adt_requests_total sample in the snapshot:\n%s", res.Metrics)
	}
	lines[at] = "garbage"
	vres, err := Verify(forge(t, res, dir, res.Workload, res.Outcomes, strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, p := range vres.Problems {
		if p.File == MetricsFile && p.Line == at+1 {
			hit = true
		}
	}
	if !hit {
		t.Errorf("no problem at %s:%d; got: %v", MetricsFile, at+1, vres.Problems)
	}
}

// TestVerifyNamesTruncatedFile: deleting lines is corruption too, and
// the problem names the missing line.
func TestVerifyNamesTruncatedFile(t *testing.T) {
	_, dir := recordPack(t, queueWorkload(t))
	path := filepath.Join(dir, ResultsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:len(lines)-2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, p := range res.Problems {
		if p.File == ResultsFile && strings.Contains(p.Msg, "truncated") {
			hit = true
		}
	}
	if !hit {
		t.Errorf("truncation not named; got: %v", res.Problems)
	}
}
