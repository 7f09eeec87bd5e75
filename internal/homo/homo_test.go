package homo_test

import (
	"strings"
	"testing"

	"algspec/internal/core"
	"algspec/internal/homo"
	"algspec/internal/reps"
	"algspec/internal/sig"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

func stackVerifier(t *testing.T, withAssumption bool) *homo.Verifier {
	t.Helper()
	v, err := reps.SymtabAsStack(speclib.BaseEnv(), withAssumption)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// E2, the paper's central result: under Assumption 1 the stack-of-arrays
// representation satisfies all nine Symboltable axioms on every reachable
// concrete value up to the depth bound.
func TestE2StackRepresentationCorrect(t *testing.T) {
	v := stackVerifier(t, true)
	rep, err := v.Verify(homo.Config{Depth: 4, MaxInstancesPerAxiom: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verification failed:\n%s", rep)
	}
	if len(rep.Results) != 9 {
		t.Fatalf("axioms verified = %d, want 9", len(rep.Results))
	}
	for _, res := range rep.Results {
		if res.Instances == 0 {
			t.Errorf("axiom [%s] exercised no instances", res.Axiom.Label)
		}
		if res.Passed+res.Skipped != res.Instances {
			t.Errorf("axiom [%s] accounting: %d+%d != %d", res.Axiom.Label, res.Passed, res.Skipped, res.Instances)
		}
	}
	// The assumption is actually exercised: axioms 6 and 9 (whose
	// left-hand sides contain ADD) have skipped instances.
	for _, label := range []string{"6", "9"} {
		res, ok := rep.Result(label)
		if !ok || res.Skipped == 0 {
			t.Errorf("axiom [%s] skipped = %v (assumption not exercised)", label, res)
		}
	}
	// Axioms without ADD on the left skip nothing... except 3, whose
	// LHS is leaveblock(add(...)).
	for _, label := range []string{"1", "2", "4", "5", "7", "8"} {
		res, _ := rep.Result(label)
		if res.Skipped != 0 {
			t.Errorf("axiom [%s] unexpectedly skipped %d", label, res.Skipped)
		}
	}
}

// The paper: "The proof that the implementation satisfies Axiom 9 is
// based upon an assumption about the environment". Without Assumption 1,
// axiom 9 has concrete counterexamples (ADD' to a never-entered stack).
func TestE2Axiom9NeedsAssumption(t *testing.T) {
	v := stackVerifier(t, false)
	res, err := v.VerifyAxiom("9", homo.Config{Depth: 4, MaxInstancesPerAxiom: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("axiom 9 verified without Assumption 1")
	}
	// Every counterexample involves the un-entered stack.
	for _, cx := range res.Failures {
		if sym, ok := cx.Assignment["symtab"]; !ok || !strings.Contains(sym.String(), "newstack") {
			t.Errorf("counterexample does not involve newstack: %s", cx)
		}
	}
	// With the assumption, the same axiom verifies.
	v2 := stackVerifier(t, true)
	res2, err := v2.VerifyAxiom("9", homo.Config{Depth: 4, MaxInstancesPerAxiom: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Failures) != 0 {
		t.Fatalf("axiom 9 failed under the assumption: %v", res2.Failures)
	}
	if res2.Skipped == 0 {
		t.Error("assumption skipped nothing")
	}
}

// The flat-list representation is unconditionally correct: all nine
// axioms, zero skipped instances.
func TestListRepresentationUnconditionallyCorrect(t *testing.T) {
	v, err := reps.SymtabAsList(speclib.BaseEnv())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Verify(homo.Config{Depth: 4, MaxInstancesPerAxiom: 800})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verification failed:\n%s", rep)
	}
	for _, res := range rep.Results {
		if res.Skipped != 0 {
			t.Errorf("axiom [%s] needed assumptions: %d skipped", res.Axiom.Label, res.Skipped)
		}
	}
}

// Φ maps concrete values to the abstract values they represent.
func TestPhiImages(t *testing.T) {
	env := speclib.BaseEnv()
	v, err := reps.SymtabAsStack(env, true)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ conc, wantAbs string }{
		{"newstack", "error"},
		{"init'", "init"},
		{"enterblock'(init')", "enterblock(init)"},
		{"add'(init', 'x, 'a1)", "add(init, 'x, 'a1)"},
		{"add'(enterblock'(init'), 'x, 'a1)", "add(enterblock(init), 'x, 'a1)"},
		{"leaveblock'(enterblock'(init'))", "init"},
	}
	for _, c := range cases {
		conc, err := env.ParseTerm("SymtabImpl", c.conc)
		if err != nil {
			t.Fatal(err)
		}
		// Normalize the concrete term to constructor form first (the
		// primed ops are defined operations, Φ matches constructors).
		concNF, err := env.EvalTerm("SymtabImpl", conc)
		if err != nil {
			t.Fatal(err)
		}
		img, err := v.PhiImage(concNF)
		if err != nil {
			t.Fatal(err)
		}
		if c.wantAbs == "error" {
			if !img.IsErr() {
				t.Errorf("phi(%s) = %s, want error", c.conc, img)
			}
			continue
		}
		want := env.MustEval("Symboltable", c.wantAbs)
		if !img.Equal(want) {
			t.Errorf("phi(%s) = %s, want %s", c.conc, img, want)
		}
	}
}

// Interpret maps abstract terms to their primed forms with the abstract
// sort replaced by the representation sort.
func TestInterpret(t *testing.T) {
	env := speclib.BaseEnv()
	v, err := reps.SymtabAsStack(env, true)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := core.ParseAxiomSide(env.MustGet("Symboltable"),
		"retrieve(add(symtab, id, attrs), idl)",
		map[string]sig.Sort{"symtab": "Symboltable", "id": "Identifier", "idl": "Identifier", "attrs": "Attrs"}, "")
	if err != nil {
		t.Fatal(err)
	}
	got := v.Interpret(abs)
	if got.String() != "retrieve'(add'(symtab, id, attrs), idl)" {
		t.Errorf("Interpret = %s", got)
	}
	// The symtab variable now ranges over Stack.
	for _, vr := range got.Vars() {
		if vr.Sym == "symtab" && vr.Sort != "Stack" {
			t.Errorf("symtab sort = %s", vr.Sort)
		}
	}
}

// Construction-time validation of Representation descriptions.
func TestNewValidation(t *testing.T) {
	env := speclib.BaseEnv()
	base := func() homo.Representation {
		return homo.Representation{
			Abstract: env.MustGet("Symboltable"),
			Concrete: env.MustGet("SymtabImpl"),
			AbsSort:  "Symboltable",
			RepSort:  "Stack",
			OpMap:    reps.SymtabOpMap,
			PhiRules: [][2]string{{"phi(newstack)", "error"}},
			PhiVars:  map[string]sig.Sort{},
		}
	}

	bad := base()
	bad.AbsSort = "Nope"
	if _, err := homo.New(bad); err == nil {
		t.Error("unknown abstract sort accepted")
	}
	bad2 := base()
	bad2.OpMap = map[string]string{"init": "ghost'"}
	if _, err := homo.New(bad2); err == nil {
		t.Error("unknown concrete op accepted")
	}
	bad3 := base()
	bad3.PhiRules = [][2]string{{"phi(nonsense)", "init"}}
	if _, err := homo.New(bad3); err == nil {
		t.Error("bad phi rule accepted")
	}
	bad4 := base()
	bad4.Assumptions = []homo.Assumption{{Name: "A", Op: "ghost'", Pred: "true", Want: "true"}}
	if _, err := homo.New(bad4); err == nil {
		t.Error("assumption on unknown op accepted")
	}
	bad5 := base()
	bad5.Assumptions = []homo.Assumption{{Name: "A", Op: "add'", ArgIndex: 9, Pred: "true", Want: "true"}}
	if _, err := homo.New(bad5); err == nil {
		t.Error("out-of-range assumption index accepted")
	}
	if _, err := homo.New(base()); err != nil {
		t.Errorf("valid representation rejected: %v", err)
	}
}

// A deliberately wrong representation is refuted: swap the isInblock'
// interpretation for one that searches all scopes (i.e. implements
// retrieve-style lookup), violating axiom 5.
func TestWrongInterpretationRefuted(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	env.MustLoad(`
spec BadImpl
  uses Bool, Stack
  ops
    binit       : -> Stack
    benterblock : Stack -> Stack
    bleaveblock : Stack -> Stack
    badd        : Stack, Identifier, Attrs -> Stack
    bisInblock? : Stack, Identifier -> Bool
    bretrieve   : Stack, Identifier -> Attrs
  vars
    stk : Stack
    id : Identifier
    attrs : Attrs
  axioms
    [i]  binit = push(newstack, empty)
    [e]  benterblock(stk) = push(stk, empty)
    [l]  bleaveblock(stk) = if isNewstack?(pop(stk)) then error else pop(stk)
    [a]  badd(stk, id, attrs) = replace(stk, assign(top(stk), id, attrs))
    -- BUG: searches every scope, not just the current block.
    [ib] bisInblock?(stk, id) = if isNewstack?(stk) then false else if isUndefined?(top(stk), id) then bisInblock?(pop(stk), id) else true
    [r]  bretrieve(stk, id) = if isNewstack?(stk) then error else if isUndefined?(top(stk), id) then bretrieve(pop(stk), id) else read(top(stk), id)
end`)
	v, err := homo.New(homo.Representation{
		Abstract: env.MustGet("Symboltable"),
		Concrete: env.MustGet("BadImpl"),
		AbsSort:  "Symboltable",
		RepSort:  "Stack",
		OpMap: map[string]string{
			"init": "binit", "enterblock": "benterblock", "leaveblock": "bleaveblock",
			"add": "badd", "isInblock?": "bisInblock?", "retrieve": "bretrieve",
		},
		PhiRules: [][2]string{
			{"phi(newstack)", "error"},
			{"phi(push(stk, empty))", "if isNewstack?(stk) then init else enterblock(phi(stk))"},
			{"phi(push(stk, assign(arr, id, attrs)))", "add(phi(push(stk, arr)), id, attrs)"},
		},
		PhiVars: map[string]sig.Sort{"stk": "Stack", "arr": "Array", "id": "Identifier", "attrs": "Attrs"},
		Assumptions: []homo.Assumption{{
			Name: "Assumption 1", Op: "badd", ArgIndex: 0,
			Pred: "isNewstack?(x)", Want: "false",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Axiom 5: isInblock?(enterblock(s), id) = false must fail for a
	// stack whose outer scope defines id.
	res, err := v.VerifyAxiom("5", homo.Config{Depth: 4, MaxInstancesPerAxiom: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("buggy isInblock interpretation not refuted")
	}
}

func TestReportRendering(t *testing.T) {
	v := stackVerifier(t, true)
	rep, err := v.Verify(homo.Config{Depth: 3, MaxInstancesPerAxiom: 100})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if !strings.Contains(out, "axiom [9]") || !strings.Contains(out, "skipped by assumption") {
		t.Errorf("rendering:\n%s", out)
	}
	if v.Merged().Name != "SymboltableAsSymtabImpl" {
		t.Errorf("merged name = %s", v.Merged().Name)
	}
}

// Instantiate helper and counterexample rendering.
func TestCounterexampleString(t *testing.T) {
	cx := homo.Counterexample{
		Assignment: map[string]*term.Term{"symtab": term.NewOp("newstack", "Stack")},
		LHS:        term.NewErr("Attrs"),
		RHS:        term.NewAtom("a", "Attrs"),
	}
	s := cx.String()
	if !strings.Contains(s, "newstack") || !strings.Contains(s, "/=") {
		t.Errorf("rendering = %q", s)
	}
}
