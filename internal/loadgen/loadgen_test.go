package loadgen

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"algspec/internal/corpus"
	"algspec/internal/faultinject"
	"algspec/internal/serve"
)

func TestParseMix(t *testing.T) {
	cases := []struct {
		in      string
		want    Mix
		wantErr bool
	}{
		{"", DefaultMix, false},
		{"normalize=8,check=1,specs=1", Mix{Normalize: 8, Check: 1, Specs: 1}, false},
		{"normalize=1", Mix{Normalize: 1}, false},
		{" check=2 , specs=3 ", Mix{Check: 2, Specs: 3}, false},
		{"normalize=5,check=1,specs=1,conform=3", Mix{Normalize: 5, Check: 1, Specs: 1, Conform: 3}, false},
		{"conform=1", Mix{Conform: 1}, false},
		{"normalize=0,check=0,specs=0,conform=0", Mix{}, true},
		{"normalize", Mix{}, true},
		{"normalize=-1", Mix{}, true},
		{"fuzz=1", Mix{}, true},
	}
	for _, c := range cases {
		got, err := ParseMix(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseMix(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseMix(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestMixStringRoundTrip(t *testing.T) {
	m := Mix{Normalize: 5, Check: 2, Specs: 1, Conform: 3}
	back, err := ParseMix(m.String())
	if err != nil || back != m {
		t.Fatalf("round trip of %q: got %+v, err %v", m.String(), back, err)
	}
}

func TestParseSLOs(t *testing.T) {
	slos, err := ParseSLOs("p99=50ms,p50=5ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []SLO{{0.99, 50 * time.Millisecond}, {0.50, 5 * time.Millisecond}}
	if !reflect.DeepEqual(slos, want) {
		t.Fatalf("got %+v, want %+v", slos, want)
	}
	for _, bad := range []string{"99=50ms", "p0=1ms", "p101=1ms", "p99=fast", "p99=-1ms"} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) accepted", bad)
		}
	}
	if slos, err := ParseSLOs(""); err != nil || slos != nil {
		t.Errorf("empty SLO spec: got %v, %v", slos, err)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); got != c.want {
			t.Errorf("Quantile(q=%g) = %s, want %s", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.99); got != 0 {
		t.Errorf("Quantile of empty sample = %s, want 0", got)
	}
}

func TestFaultPlan(t *testing.T) {
	plan, err := FaultPlan("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != len(faultinject.Names()) {
		t.Fatalf("'all' armed %d points, registry has %d", len(plan), len(faultinject.Names()))
	}
	plan, err = FaultPlan("serve.pool.saturate=7,serve.handler.delay=3:4ms")
	if err != nil {
		t.Fatal(err)
	}
	if r := plan["serve.pool.saturate"]; r.Every != 7 {
		t.Errorf("saturate rule = %+v", r)
	}
	if r := plan["serve.handler.delay"]; r.Every != 3 || r.Delay != 4*time.Millisecond {
		t.Errorf("delay rule = %+v", r)
	}
	for _, bad := range []string{"x=0", "x=abc", "x=3:fast", "x=3:-1ms"} {
		if _, err := FaultPlan(bad); err == nil {
			t.Errorf("FaultPlan(%q) accepted", bad)
		}
	}
	if plan, err := FaultPlan(""); err != nil || plan != nil {
		t.Errorf("empty fault spec: got %v, %v", plan, err)
	}
}

// TestSequenceDeterminism pins the replay contract at the generator
// level: same (seed, mix, n) -> byte-identical request streams,
// different seed -> a different stream.
func TestSequenceDeterminism(t *testing.T) {
	g1, err := NewGenerator(42, DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(42, DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := g1.Sequence(200), g2.Sequence(200)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("two generators with the same seed produced different sequences")
	}
	g3, _ := NewGenerator(43, DefaultMix)
	if reflect.DeepEqual(s1, g3.Sequence(200)) {
		t.Fatal("different seeds produced identical sequences")
	}
	var kinds [4]int
	for _, req := range s1 {
		kinds[req.Kind]++
		if req.Kind == KindNormalize && req.WantNF == "" {
			t.Fatalf("normalize request #%d has no oracle", req.ID)
		}
	}
	// 8:1:1 over 200 draws: every default kind must appear, and conform
	// (weight zero) must not.
	for k, n := range kinds[:3] {
		if n == 0 {
			t.Errorf("mix kind %s never drawn in 200 requests", Kind(k))
		}
	}
	if kinds[KindConform] != 0 {
		t.Errorf("default mix drew %d conform request(s); conform weighs zero", kinds[KindConform])
	}

	// A conform-bearing mix draws conform requests, each pinned to a
	// battery spec for its session.
	gc, err := NewGenerator(42, Mix{Normalize: 1, Conform: 1})
	if err != nil {
		t.Fatal(err)
	}
	conforms := 0
	for _, req := range gc.Sequence(100) {
		if req.Kind != KindConform {
			continue
		}
		conforms++
		if req.Spec == "" {
			t.Fatalf("conform request #%d names no spec", req.ID)
		}
	}
	if conforms == 0 {
		t.Error("1:1 normalize:conform mix never drew a conform request in 100 draws")
	}
}

func TestBatteryOraclesCoverAllSpecs(t *testing.T) {
	g, err := NewGenerator(1, DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.specs) == 0 {
		t.Fatal("battery covers no specs")
	}
	for _, spec := range g.specs {
		if len(corpus.Battery(spec)) == 0 {
			t.Errorf("spec %s has an empty battery", spec)
		}
		if len(g.oracle[spec]) != len(corpus.Battery(spec)) {
			t.Errorf("spec %s: %d oracles for %d terms", spec, len(g.oracle[spec]), len(corpus.Battery(spec)))
		}
	}
}

func startServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{Workers: 2, Timeout: 2 * time.Second})
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

// TestRunCleanServer drives a real server with no faults: everything
// must succeed, reconcile exactly, and report deterministically.
func TestRunCleanServer(t *testing.T) {
	ts := startServer(t)
	rep, err := Run(Config{
		BaseURL:  ts.URL,
		Seed:     7,
		Requests: 60,
		Workers:  1,
		SLOs:     []SLO{{0.99, 5 * time.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK(false) {
		t.Fatalf("clean run not OK:\n%s", rep.String())
	}
	if rep.Success != 60 || rep.Failed != 0 || rep.Retries != 0 {
		t.Fatalf("clean run outcomes off:\n%s", rep.String())
	}
	if !strings.Contains(rep.String(), "reconciliation: OK") {
		t.Fatalf("report missing reconciliation verdict:\n%s", rep.String())
	}
}

// TestRunReportReproducible is the acceptance-criterion test in
// miniature: two runs, same seed, one worker, fresh identical servers —
// identical deterministic report sections.
func TestRunReportReproducible(t *testing.T) {
	var reports [2]string
	for i := range reports {
		ts := startServer(t)
		rep, err := Run(Config{BaseURL: ts.URL, Seed: 99, Requests: 40, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep.String()
	}
	if reports[0] != reports[1] {
		t.Fatalf("same seed, different reports:\n--- run 1 ---\n%s--- run 2 ---\n%s", reports[0], reports[1])
	}
}

// TestRunConformMix puts conform sessions in the workload against a
// clean server: every session must come back Pass (self-conformance),
// every wire exchange the sessions spent must be booked, and the books
// must still reconcile exactly against /metrics.
func TestRunConformMix(t *testing.T) {
	ts := startServer(t)
	rep, err := Run(Config{
		BaseURL:  ts.URL,
		Seed:     11,
		Requests: 30,
		Workers:  2,
		Mix:      Mix{Normalize: 4, Check: 1, Specs: 1, Conform: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK(false) {
		t.Fatalf("conform-mix run not OK:\n%s", rep.String())
	}
	if rep.Success != 30 || rep.Failed != 0 {
		t.Fatalf("conform-mix outcomes off:\n%s", rep.String())
	}
	// A session is several exchanges, so the conform attempt count must
	// exceed the conform share of the logical requests.
	if got := rep.Attempts["conform:200"]; got < 10 {
		t.Fatalf("only %d conform exchange(s) booked; sessions did not run:\n%s", got, rep.String())
	}
	if !strings.Contains(rep.Mix, "conform=4") {
		t.Fatalf("report mix %q does not carry the conform weight", rep.Mix)
	}
}

// TestRunConformMixWithAllFaults is the chaos version: with every fault
// point armed, conform sessions may be abandoned mid-way (422 fuel) or
// retried verbatim (504 cancel) — but the outcome partition must hold
// and the books must balance to the exchange against /metrics.
func TestRunConformMixWithAllFaults(t *testing.T) {
	ts := startServer(t)
	plan, err := FaultPlan("all")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(plan); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	rep, err := Run(Config{
		BaseURL:     ts.URL,
		Seed:        7,
		Requests:    80,
		Workers:     2,
		Mix:         Mix{Normalize: 4, Check: 1, Specs: 1, Conform: 4},
		FaultsArmed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK(true) {
		t.Fatalf("faulted conform-mix run not OK:\n%s", rep.String())
	}
	if !rep.Reconciled() {
		t.Fatalf("faulted conform-mix run did not reconcile:\n%s", rep.String())
	}
	if got := rep.Success + rep.ExpectedFault + rep.RetryExhausted + rep.Failed; got != 80 {
		t.Fatalf("outcomes don't partition the requests: %d != 80\n%s", got, rep.String())
	}
	if rep.Attempts["conform:200"] == 0 {
		t.Fatalf("no conform exchange succeeded under faults:\n%s", rep.String())
	}
}

// TestRunWithAllFaults arms every registered fault point and checks the
// harness absorbs the chaos: exit-OK, books balanced, and the injected
// points actually fired.
func TestRunWithAllFaults(t *testing.T) {
	ts := startServer(t)
	plan, err := FaultPlan("all")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(plan); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	rep, err := Run(Config{
		BaseURL:     ts.URL,
		Seed:        7,
		Requests:    120,
		Workers:     2,
		FaultsArmed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK(true) {
		t.Fatalf("faulted run not OK:\n%s", rep.String())
	}
	if !rep.Reconciled() {
		t.Fatalf("faulted run did not reconcile:\n%s", rep.String())
	}
	if got := rep.Success + rep.ExpectedFault + rep.RetryExhausted + rep.Failed; got != 120 {
		t.Fatalf("outcomes don't partition the requests: %d != 120\n%s", got, rep.String())
	}
	fired := 0
	for _, c := range rep.Faults {
		fired += int(c.Fires)
	}
	if fired == 0 {
		t.Fatalf("no fault point fired over 120 requests:\n%s", rep.String())
	}
}
