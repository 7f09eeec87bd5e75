package main

import (
	"fmt"
	"math/rand"
	"time"

	"algspec/internal/complete"
	"algspec/internal/completion"
	"algspec/internal/consist"
	"algspec/internal/core"
	"algspec/internal/speclib"
)

// checkDepth is the ground-term depth of the dynamic checkers, as in
// adt check -lib.
const checkDepth = 4

// pinsPath holds the pinned one-line confluence verdicts, relative to
// the repository root.
const pinsPath = "internal/completion/testdata/certificates.txt"

// libraryBench runs the adt check -lib pipeline in process, one spec
// per operation: complete.Check, consist.Check, complete.CheckDynamic
// and consist.CheckGround at depth 4, then completion.Complete (the
// adt confluence -lib path).
type libraryBench struct {
	openOps []int32 // indexes into speclib.Names
	pins    map[string]string
	env     *core.Env
	seed    int64
}

// newLibrary prepares the open-loop phase as seeded permutations of the
// 20 library specs and the closed-loop phase as whole passes in library
// order. The oracle is the pinned confluence verdicts plus the
// requirement that every spec passes all four checkers.
func newLibrary(seed int64, nOpen, nClosed int) (bench, error) {
	pins, err := loadCertificatePins(pinsPath)
	if err != nil {
		return nil, err
	}
	for _, name := range speclib.Names {
		if pins[name] == "" {
			return nil, fmt.Errorf("no pinned certificate for %s", name)
		}
	}
	b := &libraryBench{pins: pins, seed: seed}
	r := rand.New(rand.NewSource(seed))
	for len(b.openOps) < nOpen {
		for _, k := range r.Perm(len(speclib.Names)) {
			b.openOps = append(b.openOps, int32(k))
		}
	}
	b.openOps = b.openOps[:nOpen]
	return b, nil
}

// libraryEnv loads and compiles the library as adt check -lib does.
func libraryEnv() (*core.Env, error) {
	env := core.NewEnv()
	for _, src := range speclib.Sources {
		if _, err := env.Load(src); err != nil {
			return nil, err
		}
	}
	for _, name := range env.Names() {
		if _, err := env.System(name); err != nil {
			return nil, err
		}
	}
	return env, nil
}

func (b *libraryBench) boot() (err error) {
	b.env, err = libraryEnv()
	return err
}

func (b *libraryBench) stop()               { b.env = nil }
func (b *libraryBench) start() (int, error) { return 0, nil }

// The open loop runs two specs at a time, so each uses one checker
// worker; a closed-loop pass runs one spec at a time with a worker per
// sender, as adt check -lib does.
func (b *libraryBench) open(w, i int, tr *tracer) error {
	_, err := checkSpec(b.env, speclib.Names[b.openOps[i]], 1, b.pins, tr, int32(i))
	return err
}

func (b *libraryBench) pass(lo, hi int) ([]float64, int) {
	var lat []float64
	failed := 0
	for i := lo; i < hi; i++ {
		t0 := time.Now()
		if _, err := checkSpec(b.env, speclib.Names[i%len(speclib.Names)], senders, b.pins, nil, int32(i)); err != nil {
			failed++
			reportFailure(i, err)
		}
		lat = append(lat, float64(time.Since(t0))/1e6)
	}
	return lat, failed
}

// specCheck is one spec's checker times (ns) and exact work counts.
type specCheck struct {
	static, pairs, dynamic, ground, complete int64
	groundTerms, observations, criticalPairs int
}

// checkSpec runs the pipeline on one spec and compares each verdict
// with the oracle. Traced, it records a span per checker call under a
// span for the spec.
func checkSpec(env *core.Env, name string, workers int, pins map[string]string, tr *tracer, req int32) (specCheck, error) {
	var sc specCheck
	sp, ok := env.Get(name)
	if !ok {
		return sc, fmt.Errorf("unknown spec %s", name)
	}
	sys, err := env.System(name)
	if err != nil {
		return sc, err
	}
	root := tr.id()
	start := time.Now()
	var okStatic, okPairs, okDynamic, okGround bool
	var cert *completion.Certificate
	sc.static = tr.timed("complete.Check", root, req, func() { okStatic = complete.Check(sp).OK() })
	sc.pairs = tr.timed("consist.Check", root, req, func() { okPairs = consist.Check(sp).OK() })
	sc.dynamic = tr.timed("complete.CheckDynamic", root, req, func() {
		dr := complete.CheckDynamic(sp, complete.DynamicConfig{Depth: checkDepth, System: sys, Workers: workers})
		okDynamic, sc.groundTerms = dr.OK(), dr.Checked
	})
	sc.ground = tr.timed("consist.CheckGround", root, req, func() {
		gr := consist.CheckGround(sp, consist.GroundConfig{Depth: checkDepth, System: sys, Workers: workers})
		okGround, sc.observations = gr.OK(), gr.Checked
	})
	sc.complete = tr.timed("completion.Complete", root, req, func() { cert = completion.Complete(sp, completion.Config{}) })
	sc.criticalPairs = cert.Pairs
	if tr != nil {
		s := int64(start.Sub(tr.epoch))
		tr.record(span{ID: root, Req: req, Name: "check " + name, Start: s, End: tr.now()})
	}
	if !okStatic || !okPairs || !okDynamic || !okGround {
		return sc, fmt.Errorf("%s: complete %v, consistent %v, dynamically complete %v, ground consistent %v; want all true",
			name, okStatic, okPairs, okDynamic, okGround)
	}
	if got := cert.String(); got != pins[name] {
		return sc, fmt.Errorf("%s: certificate %q, pinned %q", name, got, pins[name])
	}
	return sc, nil
}

// passLedger runs one traced closed-loop pass over the library and sets
// the checker rows: per-pass time of each checker and the exact counts
// of their work.
func passLedger(env *core.Env, pins map[string]string, m ledger, tr *tracer) (int, int) {
	var sum specCheck
	failed := 0
	for i, name := range speclib.Names {
		sc, err := checkSpec(env, name, senders, pins, tr, int32(i))
		if err != nil {
			failed++
			reportFailure(i, err)
		}
		sum.static += sc.static
		sum.pairs += sc.pairs
		sum.dynamic += sc.dynamic
		sum.ground += sc.ground
		sum.complete += sc.complete
		sum.groundTerms += sc.groundTerms
		sum.observations += sc.observations
		sum.criticalPairs += sc.criticalPairs
	}
	m.set("complete.static_ms", float64(sum.static)/1e6, "ms")
	m.set("complete.dynamic_ms", float64(sum.dynamic)/1e6, "ms")
	m.set("consist.pairs_ms", float64(sum.pairs)/1e6, "ms")
	m.set("consist.ground_ms", float64(sum.ground)/1e6, "ms")
	m.set("completion.complete_ms", float64(sum.complete)/1e6, "ms")
	m.set("complete.ground_terms", float64(sum.groundTerms), "count")
	m.set("consist.observations", float64(sum.observations), "count")
	m.set("completion.critical_pairs", float64(sum.criticalPairs), "count")
	return len(speclib.Names), failed
}

// referencePass gives a serve workload's ledger the checker rows, from
// one pass on a freshly loaded library.
func referencePass(m ledger, tr *tracer) (int, int, error) {
	pins, err := loadCertificatePins(pinsPath)
	if err != nil {
		return 0, 0, err
	}
	env, err := libraryEnv()
	if err != nil {
		return 0, 0, err
	}
	checked, failed := passLedger(env, pins, m, tr)
	return checked, failed, nil
}

// ledger sets the checker rows from a traced pass on the workload's own
// environment, and the tracing overhead from that pass against an
// untraced one: the open loop's specs differ in cost by two orders of
// magnitude, so comparing its traced and untraced halves would compare
// spec mixes. The serve, registry, core, term, rewrite and cluster
// layers are not on this workload's path; their rows come from a short
// reference run of hot-normalize with the same seed, so every traced
// run reports the whole ledger.
func (b *libraryBench) ledger(m ledger, tr *tracer) (int, int, error) {
	t0 := time.Now()
	_, failed := b.pass(0, len(speclib.Names))
	untraced := time.Since(t0)
	t0 = time.Now()
	checked, f := passLedger(b.env, b.pins, m, tr)
	m.set("trace.overhead_pct", (time.Since(t0).Seconds()/untraced.Seconds()-1)*100, "%")
	m.set("trace.base_ms", float64(untraced)/1e6, "ms")
	checked, failed = checked+len(speclib.Names), failed+f
	ref, err := newHot(b.seed, 2000, 0)
	if err != nil {
		return 0, 0, err
	}
	rb := ref.(*serveBench)
	if err := rb.boot(); err != nil {
		return 0, 0, err
	}
	defer rb.stop()
	n, err := rb.start()
	if err != nil {
		return 0, 0, err
	}
	ph := newPhase(len(rb.st.open))
	openLoop(ph, workloads[0].Rate, senders, func(s, i int) error { return rb.open(s, i, nil) })
	c, f, err := rb.serveRows(m, tr)
	return checked + n + len(rb.st.open) + c, failed + ph.failed + f, err
}
