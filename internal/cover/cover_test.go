package cover_test

import (
	"strings"
	"testing"

	"algspec/internal/core"
	"algspec/internal/cover"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// The generated workload exercises every axiom of every library spec —
// i.e. none of the paper's axioms is dead.
func TestLibraryFullyCovered(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range speclib.Names {
		sp := env.MustGet(name)
		if len(sp.Own) == 0 {
			continue
		}
		// The cap must exceed the full tuple count at this depth, or
		// truncation drops the late-declared constructors' instances
		// (the generator enumerates in declaration order).
		r := cover.MeasureGenerated(sp, 4, 4000)
		if !r.Covered() {
			t.Errorf("%s: %s", name, r)
		}
		if r.Errors != 0 {
			t.Errorf("%s: %d evaluation errors", name, r.Errors)
		}
	}
}

// A shadowed (dead) axiom is reported unfired.
func TestDeadAxiomDetected(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	sps, err := env.Load(`
spec D
  uses Bool
  ops
    c : -> D
    f : D -> Bool
  vars x : D
  axioms
    [live] f(x) = true
    [dead] f(c) = false
end`)
	if err != nil {
		t.Fatal(err)
	}
	r := cover.MeasureGenerated(sps[0], 3, 100)
	if r.Covered() {
		t.Fatalf("dead axiom not reported:\n%s", r)
	}
	if len(r.Unfired) != 1 || r.Unfired[0].Label != "dead" {
		t.Errorf("unfired = %v", r.Unfired)
	}
	if !strings.Contains(r.String(), "UNFIRED") {
		t.Errorf("rendering: %s", r)
	}
}

// A narrow workload leaves boundary axioms unfired; widening it covers
// them — the test-adequacy story.
func TestWorkloadAdequacy(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")

	add := func(q *term.Term, x string) *term.Term {
		return term.NewOp("add", "Queue", q, term.NewAtom(x, "Item"))
	}
	newQ := term.NewOp("new", "Queue")

	// Only nonempty-queue observations: axioms 3 and 5 (the boundary
	// cases) never fire.
	narrow := []*term.Term{
		term.NewOp("front", "Item", add(newQ, "x")),
		term.NewOp("remove", "Queue", add(add(newQ, "x"), "y")),
		term.NewOp("isEmpty?", "Bool", add(newQ, "x")),
	}
	r := cover.Measure(sp, narrow)
	if r.Covered() {
		t.Fatal("narrow workload reported full coverage")
	}
	unfired := map[string]bool{}
	for _, a := range r.Unfired {
		unfired[a.Label] = true
	}
	if !unfired["3"] || !unfired["5"] {
		t.Errorf("expected boundary axioms 3 and 5 unfired, got %v", r.Unfired)
	}

	// Add the boundary observations: coverage completes.
	wide := append(narrow,
		term.NewOp("front", "Item", newQ),
		term.NewOp("remove", "Queue", newQ),
		term.NewOp("isEmpty?", "Bool", newQ),
	)
	// isEmpty?(new) fires axiom 1; axiom 2 fired above via axiom 4's
	// condition... measure and require full coverage.
	if r2 := cover.Measure(sp, wide); !r2.Covered() {
		t.Errorf("wide workload still uncovered:\n%s", r2)
	}
}

func TestStepsAndTermsCounted(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Nat")
	w := cover.GeneratedWorkload(sp, 3, 50)
	if len(w) == 0 {
		t.Fatal("empty workload")
	}
	r := cover.Measure(sp, w)
	if r.Terms != len(w) || r.Steps == 0 {
		t.Errorf("terms=%d steps=%d", r.Terms, r.Steps)
	}
}
