package rewrite

import "sync/atomic"

// StatsRecorder accumulates Stats from many short-lived forks into one
// set of cumulative counters that can be snapshotted at any moment —
// including while other forks are still running and recording. The serve
// subsystem owns one recorder per process: each worker forks a System
// per request, normalizes, and Records the fork's counters; /metrics
// reads Snapshot concurrently without any lock ordering against the
// workers. (A System's own Stats field stays a plain struct: a System is
// single-goroutine by contract, and per-step atomics would tax the hot
// loop for every caller; only the cross-fork aggregation is atomic.)
type StatsRecorder struct {
	steps         atomic.Int64
	ruleFires     atomic.Int64
	nativeCalls   atomic.Int64
	compiledEvals atomic.Int64
	interpEvals   atomic.Int64
}

// Record adds one fork's counters to the cumulative totals. It is safe
// to call from any number of goroutines.
func (r *StatsRecorder) Record(s Stats) {
	r.steps.Add(int64(s.Steps))
	r.ruleFires.Add(int64(s.RuleFires))
	r.nativeCalls.Add(int64(s.NativeCalls))
	r.compiledEvals.Add(int64(s.CompiledEvals))
	r.interpEvals.Add(int64(s.InterpEvals))
}

// Snapshot returns the cumulative totals recorded so far. Each counter
// is read atomically; a Snapshot taken while Records are in flight sees
// every fully-Recorded fork and never a torn counter. (The fields
// are loaded independently, so a concurrent Record may be partially
// visible across fields — totals per field are still exact once the
// recording goroutines are done, which is what the reconciliation tests
// assert.)
func (r *StatsRecorder) Snapshot() Stats {
	return Stats{
		Steps:         int(r.steps.Load()),
		RuleFires:     int(r.ruleFires.Load()),
		NativeCalls:   int(r.nativeCalls.Load()),
		CompiledEvals: int(r.compiledEvals.Load()),
		InterpEvals:   int(r.interpEvals.Load()),
	}
}
