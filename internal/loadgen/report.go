package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"algspec/internal/faultinject"
)

// Report is the outcome of one load run. Everything reachable from
// String() is deterministic for a fixed (seed, mix, request count,
// fault plan) at one client worker — that is the replay contract the
// acceptance test pins. Latencies and SLO verdicts are wall-clock and
// live in LatencySummary instead.
// Outcome classes: every logical request terminates in exactly one.
// The strings are the spelling runpack results files record, so they
// are part of the artifact format and must stay stable.
const (
	OutcomeSuccess        = "success"
	OutcomeExpectedFault  = "expected-fault"
	OutcomeRetryExhausted = "retry-exhausted"
	OutcomeFailed         = "failed"
)

// RequestOutcome is one logical request's terminal outcome, recorded
// when Config.Record is set. Status is the last HTTP status seen (0
// when every attempt died in transport); NF and Steps are filled only
// for normalize requests that got a 200 — including oracle mismatches,
// where NF is what the server actually answered.
type RequestOutcome struct {
	ID     int    `json:"id"`
	Class  string `json:"class"`
	Status int    `json:"status"`
	NF     string `json:"nf,omitempty"`
	Steps  int    `json:"steps,omitempty"`
}

type Report struct {
	Seed     int64
	Requests int
	Mix      string
	Workers  int

	// Strategies is the configured strategy rotation (empty when the
	// run never asked for one). It is rendered only for strategy-mixed
	// runs, so plain runs keep the historic report bytes.
	Strategies string

	// RunpackPath is the artifact directory this run was asked to emit
	// (empty otherwise). It is printed in the seed-reproducible section —
	// the flag value as typed, never absolutized — so report diffs stay
	// deterministic.
	RunpackPath string

	// Outcomes partition the logical requests exhaustively:
	// Success + ExpectedFault + RetryExhausted + Failed == Requests.
	Success        int64
	ExpectedFault  int64
	RetryExhausted int64
	Failed         int64
	// Retries counts re-attempts beyond each request's first try.
	Retries int64

	// Attempts counts every HTTP attempt by "endpoint:status" (status
	// "transport-error" when the attempt never produced a response).
	// These are what reconcile against the server's adt_requests_total.
	Attempts map[string]int64

	// Faults is the fault-point activity snapshot for the run (empty
	// when nothing was armed).
	Faults map[string]faultinject.Counts

	// ReconcileErrors lists every discrepancy between the client's
	// attempt counts and the server's /metrics; empty means the two
	// books balance exactly.
	ReconcileErrors []string

	// FailureSamples holds the first few failure descriptions, for
	// diagnosis.
	FailureSamples []string

	// Outcomes is the per-request view (sorted by request ID) and
	// Workload the exact request sequence that produced it; both are
	// populated only under Config.Record, for runpack emission and
	// replay diffing.
	Outcomes []RequestOutcome
	Workload []Request

	// Latencies are per-attempt wall-clock durations (unsorted).
	Latencies []time.Duration
	// SLOResults are the verdicts for the requested objectives.
	SLOResults []SLOResult
}

// Reconciled reports whether the client's books match the server's.
func (r *Report) Reconciled() bool { return len(r.ReconcileErrors) == 0 }

// SLOsMet reports whether every requested latency objective held.
func (r *Report) SLOsMet() bool {
	for _, res := range r.SLOResults {
		if !res.OK {
			return false
		}
	}
	return true
}

// OK is the exit-code predicate: no hard failures, books balanced,
// SLOs met, and — when no faults were armed — no request was allowed to
// exhaust its retries either (a clean server must never 5xx).
func (r *Report) OK(faultsArmed bool) bool {
	if r.Failed > 0 || !r.Reconciled() || !r.SLOsMet() {
		return false
	}
	if !faultsArmed && r.RetryExhausted > 0 {
		return false
	}
	return true
}

// String renders the seed-reproducible report section. Map-backed
// sections are emitted in sorted key order; nothing here may read a
// clock.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load report (seed-reproducible)\n")
	if r.Strategies != "" {
		fmt.Fprintf(&b, "  workload: seed=%d requests=%d mix=%s workers=%d strategies=%s\n", r.Seed, r.Requests, r.Mix, r.Workers, r.Strategies)
	} else {
		fmt.Fprintf(&b, "  workload: seed=%d requests=%d mix=%s workers=%d\n", r.Seed, r.Requests, r.Mix, r.Workers)
	}
	if r.RunpackPath != "" {
		// The path as typed on the command line: part of the
		// deterministic section, so it must not read the filesystem or
		// the clock (no absolutizing, no timestamps).
		fmt.Fprintf(&b, "  runpack: %s\n", r.RunpackPath)
	}
	fmt.Fprintf(&b, "  outcomes: success=%d expected-fault=%d retry-exhausted=%d failed=%d\n",
		r.Success, r.ExpectedFault, r.RetryExhausted, r.Failed)
	fmt.Fprintf(&b, "  retries: %d\n", r.Retries)
	fmt.Fprintf(&b, "  attempts:\n")
	for _, k := range SortedKeys(r.Attempts) {
		fmt.Fprintf(&b, "    %-28s %d\n", k, r.Attempts[k])
	}
	if len(r.Faults) > 0 {
		fmt.Fprintf(&b, "  faults:\n")
		for _, k := range SortedKeys(r.Faults) {
			c := r.Faults[k]
			fmt.Fprintf(&b, "    %-28s hits=%d fires=%d\n", k, c.Hits, c.Fires)
		}
	}
	if r.Reconciled() {
		fmt.Fprintf(&b, "  reconciliation: OK (client attempts match /metrics exactly)\n")
	} else {
		fmt.Fprintf(&b, "  reconciliation: FAILED\n")
		for _, e := range r.ReconcileErrors {
			fmt.Fprintf(&b, "    %s\n", e)
		}
	}
	for _, f := range r.FailureSamples {
		fmt.Fprintf(&b, "  failure: %s\n", f)
	}
	return b.String()
}

// LatencySummary renders the wall-clock section: latency quantiles and
// SLO verdicts. Deliberately separate from String — these numbers vary
// run to run and must not break seed-replay comparisons.
func (r *Report) LatencySummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency (wall-clock, not seed-reproducible)\n")
	sorted := append([]time.Duration(nil), r.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(sorted) == 0 {
		fmt.Fprintf(&b, "  no attempts recorded\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  attempts=%d p50=%s p95=%s p99=%s max=%s\n",
		len(sorted),
		Quantile(sorted, 0.50), Quantile(sorted, 0.95), Quantile(sorted, 0.99),
		sorted[len(sorted)-1])
	for _, res := range r.SLOResults {
		verdict := "PASS"
		if !res.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  slo %s: observed %s -> %s\n", res.SLO, res.Observed, verdict)
	}
	return b.String()
}
