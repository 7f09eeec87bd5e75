package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"algspec/internal/conform"
	"algspec/internal/core"
	"algspec/internal/faultinject"
	"algspec/internal/metrics"
	"algspec/internal/serve"
	"algspec/internal/speclib"
)

// Config drives one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8044".
	BaseURL string
	// Seed names the request sequence (and, with Workers == 1, the
	// whole run).
	Seed int64
	// Requests is the number of logical requests to issue.
	Requests int
	// RPS paces the open-loop scheduler; <= 0 issues as fast as the
	// workers drain.
	RPS int
	// Mix is the workload composition.
	Mix Mix
	// Workers is the client concurrency; 1 gives bit-reproducible runs.
	Workers int
	// RetryBudget is the number of re-attempts a request may spend on
	// retryable outcomes (503, 504, transport errors) before it is
	// accounted retry-exhausted. Default 3.
	RetryBudget int
	// FaultsArmed tells the classifier that fault-shaped responses
	// (422 mid-normalization, 5xx) are expected chaos, not regressions.
	FaultsArmed bool
	// SLOs are the latency objectives to assert, if any.
	SLOs []SLO
	// Strategies, when non-empty, rotates normalize requests through
	// the named evaluation strategies ("innermost", "outermost"), in
	// request order — deterministic for a fixed seed. The server
	// computes and caches each strategy's answers apart, and the
	// strategy-blind oracle (Request.Strategy) checks every one. Ignored
	// when Workload is set (runpack replay pins its own requests).
	Strategies []string
	// Workload, when non-nil, replays exactly these requests (in order)
	// instead of generating a sequence from (Seed, Mix, Requests). The
	// requests carry their own oracles, so no offline oracle pass runs.
	// Seed still seeds the retry-backoff jitter and Mix still labels the
	// report; `adt regress` feeds both from a runpack manifest so a
	// replay renders books comparable to the recorded run's.
	Workload []Request
	// Record, when true, collects one RequestOutcome per logical request
	// into Report.Outcomes (sorted by request ID). Runpack emission and
	// replay both need the per-request view; plain load runs skip the
	// bookkeeping.
	Record bool
}

// attemptTimeout bounds one HTTP attempt. It is a transport-level guard
// against a hung server, set well above the server's own request
// deadline — if it ever fires, exact reconciliation is impossible (the
// server may still count the aborted request) and the report says so.
const attemptTimeout = 30 * time.Second

// Run executes the workload and returns the reconciled report. The
// error return covers harness failures (cannot build the generator,
// cannot reach /metrics); a misbehaving server is reported in the
// Report, not as an error.
func Run(cfg Config) (*Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 3
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix
	}
	var reqs []Request
	if cfg.Workload != nil {
		reqs = cfg.Workload
		cfg.Requests = len(reqs)
	} else {
		gen, err := NewGenerator(cfg.Seed, cfg.Mix)
		if err != nil {
			return nil, err
		}
		reqs = gen.Sequence(cfg.Requests)
		if len(cfg.Strategies) > 0 {
			// Round-robin in request order, assigned before any
			// concurrency exists: the (seed, strategies) pair fully
			// determines which request asks for which strategy.
			k := 0
			for i := range reqs {
				if reqs[i].Kind == KindNormalize {
					reqs[i].Strategy = cfg.Strategies[k%len(cfg.Strategies)]
					k++
				}
			}
		}
	}

	r := &runner{
		cfg: cfg,
		// The default transport idles only 2 connections per host; with
		// more workers than that, every third request redials and the
		// dial swamps a warm-cache response. Idle as many as we run.
		client: &http.Client{
			Timeout: attemptTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Workers * 2,
				MaxIdleConnsPerHost: cfg.Workers * 2,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		attempts: make(map[string]int64),
	}
	needConform := cfg.Mix.Conform > 0
	for _, q := range reqs {
		if q.Kind == KindConform {
			needConform = true
			break
		}
	}
	if needConform {
		// The conform evaluators answer the server's probe programs with
		// an offline engine of their own — self-conformance, so the only
		// acceptable verdict is Pass. The environment is shared (Env locks
		// system construction); each session forks its own client.
		r.conformEnv = speclib.BaseEnv()
	}

	// Open-loop pacing: request i is released at start + i/RPS. Workers
	// that fall behind degrade to closed-loop (the channel is unbuffered,
	// so the pacer waits for a free worker) rather than piling up
	// goroutines — bounded client pressure, like the server's own slots.
	ch := make(chan Request)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range ch {
				r.execute(req)
			}
		}()
	}
	var interval time.Duration
	if cfg.RPS > 0 {
		interval = time.Second / time.Duration(cfg.RPS)
	}
	start := time.Now()
	for i := range reqs {
		if interval > 0 {
			if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
				time.Sleep(d)
			}
		}
		ch <- reqs[i]
	}
	close(ch)
	wg.Wait()

	rep := &Report{
		Seed:           cfg.Seed,
		Requests:       cfg.Requests,
		Mix:            cfg.Mix.String(),
		Strategies:     strings.Join(cfg.Strategies, ","),
		Workers:        cfg.Workers,
		Success:        r.success,
		ExpectedFault:  r.expectedFault,
		RetryExhausted: r.retryExhausted,
		Failed:         r.failed,
		Retries:        r.retries,
		Attempts:       r.attempts,
		FailureSamples: r.failures,
		Latencies:      r.latencies,
	}
	if cfg.Record {
		sort.Slice(r.outcomes, func(i, j int) bool { return r.outcomes[i].ID < r.outcomes[j].ID })
		rep.Outcomes = r.outcomes
		rep.Workload = reqs
	}
	if cfg.FaultsArmed {
		rep.Faults = faultinject.Snapshot()
	}
	rep.SLOResults = EvalSLOs(cfg.SLOs, rep.Latencies)
	if err := r.reconcile(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runner carries the mutable run state. Counters are written under one
// mutex: the bottleneck is the HTTP round trip, not the bookkeeping,
// and a single lock keeps every update atomic with respect to the final
// read (no lost updates to reconcile away).
type runner struct {
	cfg        Config
	client     *http.Client
	conformEnv *core.Env // offline engine for conform evaluators (nil unless the mix draws them)

	mu             sync.Mutex
	attempts       map[string]int64
	latencies      []time.Duration
	failures       []string
	outcomes       []RequestOutcome
	success        int64
	expectedFault  int64
	retryExhausted int64
	failed         int64
	retries        int64
}

// record books one logical request's terminal outcome for the
// per-request view (no-op unless Config.Record).
func (r *runner) record(req Request, class string, status int, nf string, steps int) {
	if !r.cfg.Record {
		return
	}
	r.mu.Lock()
	r.outcomes = append(r.outcomes, RequestOutcome{
		ID: req.ID, Class: class, Status: status, NF: nf, Steps: steps,
	})
	r.mu.Unlock()
}

// execute drives one logical request through its attempt/retry loop and
// classifies the outcome: success, expected-fault, retry-exhausted or
// failed. Every logical request lands in exactly one bucket.
func (r *runner) execute(req Request) {
	if req.Kind == KindConform {
		r.executeConform(req)
		return
	}
	// Backoff jitter is seeded per request from the run seed, so a
	// replay redraws the same jitter sequence.
	jitter := rand.New(rand.NewSource(r.cfg.Seed ^ (int64(req.ID)+1)*0x5DEECE66D))
	const backoffBase = 2 * time.Millisecond
	const backoffCap = 100 * time.Millisecond

	for attempt := 0; ; attempt++ {
		status, body, err := r.attempt(req)
		retryable := false
		switch {
		case err != nil:
			// The attempt produced no HTTP response (refused, reset, or
			// the transport guard fired): retry, and let reconciliation
			// flag it if the server half-saw the request.
			retryable = true
		case status == http.StatusOK:
			nf, steps, vErr := r.verify(req, body)
			if vErr != nil {
				r.fail(fmt.Sprintf("%s #%d: %v", req.Kind, req.ID, vErr))
				r.record(req, OutcomeFailed, status, nf, steps)
			} else {
				r.bump(&r.success)
				r.record(req, OutcomeSuccess, status, nf, steps)
			}
			return
		case status == http.StatusUnprocessableEntity && r.cfg.FaultsArmed:
			// Injected ErrFuel surfaced as 422. Deterministic per
			// attempt-schedule, so it is a terminal expected outcome, not
			// a retry.
			r.bump(&r.expectedFault)
			r.record(req, OutcomeExpectedFault, status, "", 0)
			return
		case status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout:
			// Saturation or a (possibly injected) deadline: transient by
			// construction, worth the retry budget.
			retryable = true
		default:
			r.fail(fmt.Sprintf("%s #%d: unexpected status %d: %s", req.Kind, req.ID, status, clipBody(body)))
			r.record(req, OutcomeFailed, status, "", 0)
			return
		}
		if !retryable {
			return
		}
		if attempt >= r.cfg.RetryBudget {
			r.bump(&r.retryExhausted)
			r.record(req, OutcomeRetryExhausted, status, "", 0)
			return
		}
		r.bump(&r.retries)
		// Jittered exponential backoff: base*2^attempt scaled into
		// [0.5, 1.0), capped.
		d := backoffBase << attempt
		if d > backoffCap {
			d = backoffCap
		}
		time.Sleep(time.Duration(float64(d) * (0.5 + jitter.Float64()/2)))
	}
}

// attempt performs one HTTP exchange and books it under
// "endpoint:status" (or "endpoint:transport-error").
func (r *runner) attempt(req Request) (status int, body []byte, err error) {
	var httpReq *http.Request
	switch req.Kind {
	case KindNormalize:
		payload, _ := json.Marshal(serve.NormalizeRequest{Spec: req.Spec, Term: req.Term, Strategy: req.Strategy})
		httpReq, err = http.NewRequest("POST", r.cfg.BaseURL+"/v1/normalize", bytes.NewReader(payload))
	case KindCheck:
		payload, _ := json.Marshal(serve.CheckRequest{Source: checkSource, Depth: 2})
		httpReq, err = http.NewRequest("POST", r.cfg.BaseURL+"/v1/check", bytes.NewReader(payload))
	default:
		httpReq, err = http.NewRequest("GET", r.cfg.BaseURL+"/v1/specs", nil)
	}
	if err != nil {
		return 0, nil, err
	}
	if httpReq.Method == "POST" {
		httpReq.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := r.client.Do(httpReq)
	elapsed := time.Since(start)
	if err != nil {
		r.book(req.Kind.String()+":transport-error", elapsed)
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, readErr := io.ReadAll(resp.Body)
	r.book(fmt.Sprintf("%s:%d", req.Kind, resp.StatusCode), elapsed)
	if readErr != nil {
		return 0, nil, readErr
	}
	return resp.StatusCode, body, nil
}

// Sentinels for the conform session loop: a retrying poster reports
// these up through conform.Drive so the session's terminal state lands
// in the right outcome bucket.
var (
	errExpectedFault  = errors.New("loadgen: injected engine fault (expected under -faults)")
	errRetryExhausted = errors.New("loadgen: conform retry budget exhausted")
)

// executeConform drives one logical conform request: a complete oracle
// session (open, observe rounds, close) against /v1/conform, answered
// by an offline engine fork — self-conformance, so a finished session
// must come back Pass. Each wire exchange the session spends is booked
// under conform:<status> exactly like a single-shot request, which is
// what keeps the /metrics reconciliation bidirectional: the server
// counts exchanges, not sessions. Faults land mid-session: a 422
// (injected fuel exhaustion) abandons the session as an expected fault
// (the server's TTL reaps it), a 503/504 retries the same message
// verbatim — the protocol's replay idempotency is what makes that safe.
func (r *runner) executeConform(req Request) {
	eval, err := conform.NewEngineClient(r.conformEnv, req.Spec)
	if err != nil {
		r.fail(fmt.Sprintf("%s #%d: building evaluator: %v", req.Kind, req.ID, err))
		r.record(req, OutcomeFailed, 0, "", 0)
		return
	}
	jitter := rand.New(rand.NewSource(r.cfg.Seed ^ (int64(req.ID)+1)*0x5DEECE66D))
	const backoffBase = 2 * time.Millisecond
	const backoffCap = 100 * time.Millisecond

	// The retry budget is per logical request, shared across the
	// session's exchanges: a flaky run cannot spend unbounded attempts
	// just because a session has many rounds.
	budget := r.cfg.RetryBudget
	post := func(creq *conform.Request) (*conform.Response, error) {
		for attempt := 0; ; attempt++ {
			status, body, err := r.conformExchange(creq)
			if err == nil {
				switch {
				case status == http.StatusOK:
					var resp conform.Response
					if uerr := json.Unmarshal(body, &resp); uerr != nil {
						return nil, fmt.Errorf("bad conform body: %w", uerr)
					}
					return &resp, nil
				case status == http.StatusUnprocessableEntity && r.cfg.FaultsArmed:
					// Injected ErrFuel while the server planned or judged.
					// Terminal for the session, expected for the run.
					return nil, errExpectedFault
				case status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout:
					// Fall through to the retry path.
				default:
					return nil, fmt.Errorf("conform %s: unexpected status %d: %s", creq.Action, status, clipBody(body))
				}
			}
			if budget <= 0 {
				return nil, errRetryExhausted
			}
			budget--
			r.bump(&r.retries)
			d := backoffBase << attempt
			if d > backoffCap {
				d = backoffCap
			}
			time.Sleep(time.Duration(float64(d) * (0.5 + jitter.Float64()/2)))
		}
	}

	v, err := conform.Drive(post, &conform.Request{Spec: req.Spec}, eval)
	switch {
	case errors.Is(err, errExpectedFault):
		r.bump(&r.expectedFault)
		r.record(req, OutcomeExpectedFault, http.StatusUnprocessableEntity, "", 0)
	case errors.Is(err, errRetryExhausted):
		r.bump(&r.retryExhausted)
		r.record(req, OutcomeRetryExhausted, 0, "", 0)
	case err != nil:
		r.fail(fmt.Sprintf("%s #%d: %v", req.Kind, req.ID, err))
		r.record(req, OutcomeFailed, 0, "", 0)
	case !v.Pass:
		r.fail(fmt.Sprintf("%s #%d: engine failed self-conformance on %s: %d of %d probe(s) disagree",
			req.Kind, req.ID, req.Spec, v.FailureCount, v.Checked))
		r.record(req, OutcomeFailed, http.StatusOK, "", 0)
	default:
		r.bump(&r.success)
		r.record(req, OutcomeSuccess, http.StatusOK, "", 0)
	}
}

// conformExchange performs one wire exchange of a conform session and
// books it, the same contract as attempt.
func (r *runner) conformExchange(creq *conform.Request) (status int, body []byte, err error) {
	payload, err := json.Marshal(creq)
	if err != nil {
		return 0, nil, err
	}
	httpReq, err := http.NewRequest("POST", r.cfg.BaseURL+"/v1/conform", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := r.client.Do(httpReq)
	elapsed := time.Since(start)
	if err != nil {
		r.book("conform:transport-error", elapsed)
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, readErr := io.ReadAll(resp.Body)
	r.book(fmt.Sprintf("conform:%d", resp.StatusCode), elapsed)
	if readErr != nil {
		return 0, nil, readErr
	}
	return resp.StatusCode, body, nil
}

// verify checks a 200 body against the request's oracle. For normalize
// requests it also returns the served normal form and step count —
// recorded even on an oracle mismatch, so a runpack diff can name what
// the server actually answered.
func (r *runner) verify(req Request, body []byte) (nf string, steps int, err error) {
	switch req.Kind {
	case KindNormalize:
		var resp serve.NormalizeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return "", 0, fmt.Errorf("bad normalize body: %w", err)
		}
		if resp.NormalForm != req.WantNF {
			return resp.NormalForm, resp.Steps, fmt.Errorf("%s %q normalized to %q, oracle says %q",
				req.Spec, req.Term, resp.NormalForm, req.WantNF)
		}
		return resp.NormalForm, resp.Steps, nil
	case KindCheck:
		var resp serve.CheckResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return "", 0, fmt.Errorf("bad check body: %w", err)
		}
		if !resp.OK || len(resp.Specs) != 1 {
			return "", 0, fmt.Errorf("probe spec failed its checks: %s", clipBody(body))
		}
	default:
		var resp serve.SpecsResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return "", 0, fmt.Errorf("bad specs body: %w", err)
		}
		if len(resp.Specs) == 0 {
			return "", 0, fmt.Errorf("specs listing came back empty")
		}
	}
	return "", 0, nil
}

func (r *runner) book(key string, d time.Duration) {
	r.mu.Lock()
	r.attempts[key]++
	r.latencies = append(r.latencies, d)
	r.mu.Unlock()
}

func (r *runner) bump(c *int64) {
	r.mu.Lock()
	*c++
	r.mu.Unlock()
}

func (r *runner) fail(msg string) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
	r.mu.Unlock()
}

// reconcile fetches GET /metrics (uninstrumented on the server, so the
// scrape itself never skews the books) and checks that the server's
// per-(endpoint, code) request counters match the client's attempt
// counts exactly, in both directions. The harness owns the server for
// the duration of the run, so any discrepancy is a lost or phantom
// update — exactly the class of bug the soak tests exist to catch.
func (r *runner) reconcile(rep *Report) error {
	page, err := metrics.Scrape(r.client, r.cfg.BaseURL+"/metrics")
	if err != nil {
		return fmt.Errorf("loadgen: scraping /metrics: %w", err)
	}
	server := make(map[string]int64)
	for _, s := range page.Samples("adt_requests_total") {
		server[s.Labels["endpoint"]+":"+s.Labels["code"]] = int64(s.Value)
	}
	for _, key := range SortedKeys(rep.Attempts) {
		want := rep.Attempts[key]
		if strings.HasSuffix(key, ":transport-error") {
			rep.ReconcileErrors = append(rep.ReconcileErrors,
				fmt.Sprintf("%d attempt(s) died in transport (%s); server-side accounting unverifiable", want, key))
			continue
		}
		if got := server[key]; got != want {
			rep.ReconcileErrors = append(rep.ReconcileErrors,
				fmt.Sprintf("%s: client made %d attempt(s), server counted %d", key, want, got))
		}
	}
	for _, key := range SortedKeys(server) {
		if _, ok := rep.Attempts[key]; !ok {
			rep.ReconcileErrors = append(rep.ReconcileErrors,
				fmt.Sprintf("%s: server counted %d request(s) the client never made", key, server[key]))
		}
	}
	return nil
}

func clipBody(b []byte) string {
	s := string(b)
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
