package conform_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algspec/internal/conform"
	"algspec/internal/core"
	"algspec/internal/refimpl"
	"algspec/internal/sig"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

func loadEnv(t *testing.T) *core.Env {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("globbing shipped specs: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.Load(string(src)); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	return env
}

func normalizer(t *testing.T, env *core.Env, spec string) conform.Normalizer {
	t.Helper()
	sys, err := env.System(spec)
	if err != nil {
		t.Fatal(err)
	}
	f := sys.Fork()
	return func(tm *term.Term) (*term.Term, error) {
		return f.Normalize(sys.Interner().Canon(tm))
	}
}

// observeSorts mirrors what the e2e clients declare: every reference
// implementation can reify Nat (and the always-observable sorts come
// free).
var observeSorts = []sig.Sort{"Nat"}

// runSession drives a session to its verdict entirely in-process.
func runSession(t *testing.T, env *core.Env, spec string, eval conform.Evaluator) *conform.Verdict {
	t.Helper()
	sp := env.MustGet(spec)
	norm := normalizer(t, env, spec)
	plan, err := conform.NewPlan(env, sp, norm, conform.PlanConfig{ObserveSorts: observeSorts})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Programs) == 0 {
		t.Fatalf("%s: planner produced zero programs", spec)
	}
	sess := conform.NewSession(plan)
	cur := plan.Programs
	for rounds := 0; !sess.Done(); rounds++ {
		if rounds > 200 {
			t.Fatal("session did not converge")
		}
		obs := make([]conform.Observation, 0, len(cur))
		for _, p := range cur {
			o, err := eval.Observe(conform.Msg(p))
			if err != nil {
				t.Fatalf("observing %s: %v", p.Text, err)
			}
			o.ID = p.ID
			obs = append(obs, o)
		}
		done, next, err := sess.Observe(obs, norm)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		cur = next
	}
	return sess.Verdict()
}

// TestEngineSelfConformance: the engine judging itself must pass on
// every spec that has own axioms — the loadgen conform workload leans on
// exactly this invariant.
func TestEngineSelfConformance(t *testing.T) {
	env := loadEnv(t)
	for _, spec := range []string{"Counter", "Graph", "PQueue", "Queue", "Set", "Stack"} {
		t.Run(spec, func(t *testing.T) {
			ec, err := conform.NewEngineClient(env, spec)
			if err != nil {
				t.Fatal(err)
			}
			v := runSession(t, env, spec, ec)
			if !v.Pass {
				t.Fatalf("engine failed self-conformance: %d failures, counterexample %v", v.FailureCount, v.Counterexample)
			}
			if v.Checked == 0 {
				t.Fatal("verdict checked zero programs")
			}
		})
	}
}

// TestReferencesConform: the native reference implementations pass a
// full conformance session.
func TestReferencesConform(t *testing.T) {
	env := loadEnv(t)
	for name, build := range refimpl.Builders() {
		t.Run(name, func(t *testing.T) {
			sp := env.MustGet(name)
			v := runSession(t, env, name, conform.NewModelClient(sp, build(sp)))
			if !v.Pass {
				t.Fatalf("reference failed: %d failures, first %v, counterexample %v", v.FailureCount, v.Failures, v.Counterexample)
			}
		})
	}
}

// TestMutantsKilled: every single-operation mutant must fail its session
// AND come back with a shrunk counterexample that still mentions the
// mutated operation (minimality sanity: shrinking must not wander off to
// an unrelated program).
func TestMutantsKilled(t *testing.T) {
	env := loadEnv(t)
	killed, total := 0, 0
	for name := range refimpl.Builders() {
		sp := env.MustGet(name)
		for _, m := range refimpl.Mutants(sp) {
			total++
			m := m
			t.Run(m.Spec+"/"+m.Op, func(t *testing.T) {
				v := runSession(t, env, m.Spec, conform.NewModelClient(sp, m.Impl))
				if v.Pass {
					t.Fatalf("mutant %s.%s passed conformance", m.Spec, m.Op)
				}
				killed++
				ce := v.Counterexample
				if ce == nil {
					t.Fatal("failing verdict carries no counterexample")
				}
				if !strings.Contains(ce.Program, m.Op) {
					t.Errorf("counterexample %q does not mention mutated op %s", ce.Program, m.Op)
				}
				if ce.Want == ce.Got {
					t.Errorf("counterexample want == got == %q", ce.Want)
				}
			})
		}
	}
	if total < 12 {
		t.Errorf("only %d mutants enumerated, want >= 12", total)
	}
}

// TestShrinkMinimal pins shrinking quality on a known mutant: the
// Counter undo mutant's counterexample must be exactly the smallest
// failing probe, value(undo(inc(start))) — or undo's error-side twin.
func TestShrinkMinimal(t *testing.T) {
	env := loadEnv(t)
	sp := env.MustGet("Counter")
	m := refimpl.Mutate(sp, refimpl.Counter, "undo")
	v := runSession(t, env, "Counter", conform.NewModelClient(sp, m))
	if v.Pass {
		t.Fatal("undo mutant passed")
	}
	got := v.Counterexample.Program
	want := map[string]bool{
		"value(undo(start))":      true, // error side: real undo(start)=error, mutant returns 0
		"value(undo(inc(start)))": true, // value side: real = zero, mutant = error
	}
	if !want[got] {
		t.Errorf("counterexample = %q, want one of %v (shrinking regressed)", got, want)
	}
}

// TestWireRoundTrip: EncodeTree/DecodeTree are inverse on a
// representative term, including atoms and error.
func TestWireRoundTrip(t *testing.T) {
	env := loadEnv(t)
	for _, src := range []string{
		"hasEdge?(addEdge(emptyg, 'a, 'b), 'a, 'b)",
		"addEdge(emptyg, 'a, 'b)",
	} {
		tm, err := env.ParseTerm("Graph", src)
		if err != nil {
			t.Fatal(err)
		}
		back, err := conform.DecodeTree(conform.EncodeTree(tm))
		if err != nil {
			t.Fatal(err)
		}
		if back.String() != tm.String() {
			t.Errorf("round trip: %s -> %s", tm, back)
		}
	}
	errTree := conform.EncodeTree(term.NewErr("Graph"))
	back, err := conform.DecodeTree(errTree)
	if err != nil || !back.IsErr() {
		t.Errorf("error round trip: %v %v", back, err)
	}
}

// TestProtocolErrors: missing observations surface as ProtocolError, and
// sessions stay retryable after one.
func TestProtocolErrors(t *testing.T) {
	env := loadEnv(t)
	sp := env.MustGet("Counter")
	norm := normalizer(t, env, "Counter")
	plan, err := conform.NewPlan(env, sp, norm, conform.PlanConfig{ObserveSorts: observeSorts})
	if err != nil {
		t.Fatal(err)
	}
	sess := conform.NewSession(plan)
	_, _, err = sess.Observe(nil, norm)
	var pe *conform.ProtocolError
	if !asProtocolError(err, &pe) {
		t.Fatalf("want ProtocolError, got %v", err)
	}
	if sess.Done() {
		t.Fatal("session sealed by protocol error")
	}
	// The session is still usable: answer properly and it completes.
	ec, err := conform.NewEngineClient(env, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]conform.Observation, 0, len(plan.Programs))
	for _, p := range plan.Programs {
		o, err := ec.Observe(conform.Msg(p))
		if err != nil {
			t.Fatal(err)
		}
		o.ID = p.ID
		obs = append(obs, o)
	}
	done, _, err := sess.Observe(obs, norm)
	if err != nil || !done {
		t.Fatalf("retry after protocol error: done=%v err=%v", done, err)
	}
	if !sess.Verdict().Pass {
		t.Fatal("self-conformance failed after retry")
	}
}

func asProtocolError(err error, target **conform.ProtocolError) bool {
	pe, ok := err.(*conform.ProtocolError)
	if ok {
		*target = pe
	}
	return ok
}
