package rewrite_test

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"algspec/internal/core"
	"algspec/internal/gen"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

func env(t *testing.T) *core.Env {
	t.Helper()
	return speclib.BaseEnv()
}

func TestQueueEvaluation(t *testing.T) {
	e := env(t)
	cases := []struct{ in, want string }{
		{"isEmpty?(new)", "true"},
		{"isEmpty?(add(new, 'x))", "false"},
		{"front(new)", "error"},
		{"front(add(new, 'x))", "'x"},
		{"front(add(add(new, 'x), 'y))", "'x"},
		{"remove(new)", "error"},
		{"remove(add(new, 'x))", "new"},
		{"front(remove(add(add(new, 'x), 'y)))", "'y"},
		{"front(remove(remove(add(add(add(new, 'x), 'y), 'z))))", "'z"},
		// Error strictness through nested operations.
		{"front(remove(new))", "error"},
		{"add(remove(new), 'x)", "error"},
		{"isEmpty?(remove(new))", "error"},
	}
	for _, c := range cases {
		if got := e.MustEval("Queue", c.in).String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestBoolAndNat(t *testing.T) {
	e := env(t)
	cases := []struct{ in, want string }{
		{"and(true, or(false, true))", "true"},
		{"not(and(true, false))", "true"},
		{"addN(succ(zero), succ(succ(zero)))", "succ(succ(succ(zero)))"},
		{"eqN(succ(zero), succ(zero))", "true"},
		{"ltN(succ(zero), succ(succ(zero)))", "true"},
		{"ltN(succ(zero), zero)", "false"},
		{"pred(zero)", "error"},
		{"pred(succ(zero))", "zero"},
		{"addN(pred(zero), zero)", "error"},
	}
	for _, c := range cases {
		if got := e.MustEval("Nat", c.in).String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestNativeSameAtoms(t *testing.T) {
	e := env(t)
	if got := e.MustEval("Identifier", "same?('x, 'x)").String(); got != "true" {
		t.Errorf("same?('x,'x) = %s", got)
	}
	if got := e.MustEval("Identifier", "same?('x, 'y)").String(); got != "false" {
		t.Errorf("same?('x,'y) = %s", got)
	}
}

func TestSymboltableShadowingAndScopes(t *testing.T) {
	e := env(t)
	cases := []struct{ in, want string }{
		// Most local binding wins (axiom 9).
		{"retrieve(add(add(init, 'x, 'a1), 'x, 'a2), 'x)", "'a2"},
		// Inner scope shadows; leaving restores (axioms 2, 9).
		{"retrieve(leaveblock(add(enterblock(add(init, 'x, 'a1)), 'x, 'a2)), 'x)", "'a1"},
		// Retrieval reaches through scopes (axiom 8).
		{"retrieve(enterblock(add(init, 'x, 'a1)), 'x)", "'a1"},
		// IS_INBLOCK? is local (axiom 5).
		{"isInblock?(enterblock(add(init, 'x, 'a1)), 'x)", "false"},
		{"isInblock?(add(init, 'x, 'a1), 'x)", "true"},
		// Boundary conditions (axioms 1, 7).
		{"leaveblock(init)", "error"},
		{"retrieve(init, 'x)", "error"},
		// Extra end after add still errors (axiom 3 + 1).
		{"leaveblock(add(init, 'x, 'a1))", "error"},
	}
	for _, c := range cases {
		if got := e.MustEval("Symboltable", c.in).String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestIfLaziness(t *testing.T) {
	// The untaken branch is not evaluated: put a diverging term there.
	e := core.NewEnv()
	e.MustLoad(speclib.Bool)
	if _, err := e.Load(`
spec Loop
  uses Bool
  ops
    c    : -> Loop
    spin : Loop -> Loop
    f    : Loop -> Loop
  vars x : Loop
  axioms
    [s] spin(x) = spin(x)
    [f] f(x) = if true then x else spin(x)
end`); err != nil {
		t.Fatal(err)
	}
	got, err := e.Eval("Loop", "f(c)")
	if err != nil {
		t.Fatalf("lazy if evaluated diverging branch: %v", err)
	}
	if got.String() != "c" {
		t.Errorf("f(c) = %s", got)
	}
	// The diverging term itself exhausts fuel.
	_, err = e.Eval("Loop", "spin(c)")
	var fuel *rewrite.ErrFuel
	if !errors.As(err, &fuel) {
		t.Fatalf("err = %v, want ErrFuel", err)
	}
	if !strings.Contains(fuel.Error(), "non-terminating") {
		t.Errorf("fuel message = %q", fuel.Error())
	}
}

func TestErrorConditionPropagates(t *testing.T) {
	e := env(t)
	// if <error> then ... else ... = error (the paper's strict error
	// reaches through the condition).
	got := e.MustEval("Queue", "front(add(remove(new), 'x))")
	if !got.IsErr() {
		t.Errorf("got %s, want error", got)
	}
}

func TestSymbolicResidue(t *testing.T) {
	// Terms with variables normalize as far as possible and keep
	// symbolic residue.
	e := env(t)
	sp := e.MustGet("Queue")
	sys := rewrite.New(sp)
	q := term.NewVar("q", "Queue")
	tm := term.NewOp("front", "Item", term.NewOp("add", "Queue", q, term.NewAtom("x", "Item")))
	nf := sys.MustNormalize(tm)
	if nf.String() != "if isEmpty?(q) then 'x else front(q)" {
		t.Errorf("symbolic nf = %s", nf)
	}
}

func TestStrategiesAgreeOnGroundTerms(t *testing.T) {
	e := env(t)
	sp := e.MustGet("Queue")
	inner := rewrite.New(sp, rewrite.WithStrategy(rewrite.Innermost))
	outer := rewrite.New(sp, rewrite.WithStrategy(rewrite.Outermost))
	g := gen.New(sp, gen.Config{})
	for _, obs := range []string{"front", "remove", "isEmpty?"} {
		op := sp.Sig.MustOp(obs)
		for _, qt := range g.Enumerate("Queue", 5) {
			tm := term.NewOp(op.Name, op.Range, qt)
			a := inner.MustNormalize(tm)
			b := outer.MustNormalize(tm)
			if !a.Equal(b) {
				t.Fatalf("strategies disagree on %s: %s vs %s", tm, a, b)
			}
		}
	}
}

func TestStepsAndReset(t *testing.T) {
	e := env(t)
	sp := e.MustGet("Queue")
	sys := rewrite.New(sp)
	sys.MustNormalize(mustParse(t, e, "front(add(add(new, 'x), 'y))"))
	if sys.Steps() == 0 {
		t.Error("no steps counted")
	}
	sys.ResetSteps()
	if sys.Steps() != 0 {
		t.Error("reset failed")
	}
}

func mustParse(t *testing.T, e *core.Env, src string) *term.Term {
	t.Helper()
	tm, err := e.ParseTerm("Queue", src)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestTrace(t *testing.T) {
	e := env(t)
	var steps []rewrite.TraceStep
	nf, err := e.Trace("Queue", "front(add(add(new, 'x), 'y))", func(ts rewrite.TraceStep) {
		steps = append(steps, ts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if nf.String() != "'x" {
		t.Errorf("nf = %s", nf)
	}
	if len(steps) == 0 {
		t.Fatal("no trace steps")
	}
	// The first applied rule must be a front axiom or isEmpty axiom.
	if steps[0].Rule.Label == "" {
		t.Error("unlabelled trace step")
	}
	for _, s := range steps {
		if s.Before == nil || s.After == nil {
			t.Error("trace step missing terms")
		}
	}
}

// The fuel limit is per Normalize call, not per System lifetime: a
// long-lived system must evaluate any number of terms even after the
// cumulative step count passes maxSteps. (Regression: the benchmarks
// originally tripped a lifetime-cumulative fuel check.)
func TestFuelIsPerCall(t *testing.T) {
	e := env(t)
	sp := e.MustGet("Queue")
	sys := rewrite.New(sp, rewrite.WithMaxSteps(50))
	tm := mustParse(t, e, "front(add(add(new, 'x), 'y))")
	for i := 0; i < 100; i++ { // cumulative steps far exceed 50
		if _, err := sys.Normalize(tm); err != nil {
			t.Fatalf("call %d (cumulative steps %d): %v", i, sys.Steps(), err)
		}
	}
	if sys.Steps() <= 50 {
		t.Fatalf("test did not exceed the per-call budget cumulatively: %d", sys.Steps())
	}
}

func TestMaxStepsOption(t *testing.T) {
	e := env(t)
	sp := e.MustGet("Nat")
	sys := rewrite.New(sp, rewrite.WithMaxSteps(3))
	tm, err := e.ParseTerm("Nat", "addN(succ(succ(succ(zero))), succ(zero))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Normalize(tm); err == nil {
		t.Error("tight fuel not enforced")
	}
}

func TestIsConstructorForm(t *testing.T) {
	e := env(t)
	sp := e.MustGet("Queue")
	good := e.MustEval("Queue", "add(add(new, 'x), 'y)")
	if !rewrite.IsConstructorForm(sp, good) {
		t.Error("constructor term rejected")
	}
	bad := term.NewOp("front", "Item", term.NewOp("new", "Queue"))
	if rewrite.IsConstructorForm(sp, bad) {
		t.Error("extension term accepted")
	}
	if !rewrite.IsConstructorForm(sp, term.NewErr("Queue")) {
		t.Error("error rejected")
	}
	if rewrite.IsConstructorForm(sp, term.NewVar("q", "Queue")) {
		t.Error("variable accepted")
	}
	iff := term.NewIf(term.NewVar("b", "Bool"), good, good)
	if rewrite.IsConstructorForm(sp, iff) {
		t.Error("conditional accepted")
	}
}

// Property: every ground Queue observer term evaluates to a constructor
// form or error (sufficient completeness, dynamically).
func TestQuickGroundNormalForms(t *testing.T) {
	e := env(t)
	sp := e.MustGet("Queue")
	sys := rewrite.New(sp)
	g := gen.New(sp, gen.Config{Seed: 99})
	f := func(depthSeed uint8) bool {
		depth := int(depthSeed%5) + 2
		qt, err := g.Random("Queue", depth)
		if err != nil {
			return false
		}
		for _, obs := range []string{"front", "remove", "isEmpty?"} {
			op := sp.Sig.MustOp(obs)
			nf, err := sys.Normalize(term.NewOp(op.Name, op.Range, qt))
			if err != nil {
				return false
			}
			if !rewrite.IsConstructorForm(sp, nf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FIFO behaviour of the Queue axioms matches a slice model.
func TestQuickQueueMatchesSliceModel(t *testing.T) {
	e := env(t)
	f := func(ops []uint8) bool {
		tm := "new"
		var model []string
		next := 0
		for _, o := range ops {
			if o%3 == 0 && len(model) > 0 {
				tm = "remove(" + tm + ")"
				model = model[1:]
			} else {
				x := string(rune('a' + int(o%5)))
				tm = "add(" + tm + ", '" + x + ")"
				model = append(model, x)
				next++
			}
		}
		got := e.MustEval("Queue", "front("+tm+")")
		if len(model) == 0 {
			return got.IsErr()
		}
		return got.String() == "'"+model[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
