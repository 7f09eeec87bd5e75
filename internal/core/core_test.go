package core_test

import (
	"strings"
	"testing"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

func TestLoadAndNames(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Queue+speclib.Identifier)
	names := env.Names()
	if len(names) != 3 || names[0] != "Bool" || names[1] != "Queue" || names[2] != "Identifier" {
		t.Errorf("names = %v", names)
	}
	sorted := env.SortedNames()
	if sorted[0] != "Bool" || sorted[1] != "Identifier" || sorted[2] != "Queue" {
		t.Errorf("sorted = %v", sorted)
	}
	if _, ok := env.Get("Queue"); !ok {
		t.Error("Get failed")
	}
	if _, ok := env.Get("Nope"); ok {
		t.Error("Get found ghost")
	}
}

func TestLoadErrors(t *testing.T) {
	env := core.NewEnv()
	// Syntax error.
	if _, err := env.Load("spec ???"); err == nil {
		t.Error("syntax error accepted")
	}
	// Semantic error.
	if _, err := env.Load("spec A uses Nope end"); err == nil {
		t.Error("semantic error accepted")
	}
	// Duplicate spec.
	env.MustLoad(speclib.Bool)
	if _, err := env.Load(speclib.Bool); err == nil ||
		!strings.Contains(err.Error(), "already loaded") {
		t.Errorf("duplicate load: %v", err)
	}
	// Add nil.
	if err := env.Add(nil); err == nil {
		t.Error("nil spec accepted")
	}
}

func TestMustLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLoad on bad source did not panic")
		}
	}()
	core.NewEnv().MustLoad("spec broken")
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet on unknown did not panic")
		}
	}()
	core.NewEnv().MustGet("Ghost")
}

func TestEvalAndEqual(t *testing.T) {
	env := speclib.BaseEnv()
	got, err := env.Eval("Queue", "front(add(new, 'x))")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "'x" {
		t.Errorf("eval = %s", got)
	}
	// Unknown spec.
	if _, err := env.Eval("Ghost", "x"); err == nil {
		t.Error("eval against ghost spec accepted")
	}
	// Equal compares normal forms.
	eq, err := env.Equal("Queue",
		"remove(add(add(new, 'x), 'y))",
		"add(new, 'y)")
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("equal terms reported unequal")
	}
	eq2, err := env.Equal("Queue", "new", "add(new, 'x)")
	if err != nil {
		t.Fatal(err)
	}
	if eq2 {
		t.Error("unequal terms reported equal")
	}
}

func TestSystemCaching(t *testing.T) {
	env := speclib.BaseEnv()
	a, err := env.System("Queue")
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.System("Queue")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("systems not cached")
	}
	if _, err := env.System("Ghost"); err == nil {
		t.Error("system for ghost spec")
	}
}

func TestTraceProducesSteps(t *testing.T) {
	env := speclib.BaseEnv()
	n := 0
	nf, err := env.Trace("Nat", "addN(succ(zero), succ(zero))", func(rewrite.TraceStep) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if nf.String() != "succ(succ(zero))" || n == 0 {
		t.Errorf("nf = %s, steps = %d", nf, n)
	}
}

func TestParseAxiomSideAndEvalTerm(t *testing.T) {
	env := speclib.BaseEnv()
	open, err := core.ParseAxiomSide(env.MustGet("Queue"), "front(add(q, 'x))",
		map[string]sig.Sort{"q": "Queue"}, "")
	if err != nil {
		t.Fatal(err)
	}
	// Instantiate q and evaluate the resulting ground term directly.
	ground := core.Instantiate(open, map[string]*term.Term{
		"q": term.NewOp("new", "Queue"),
	})
	nf, err := env.EvalTerm("Queue", ground)
	if err != nil {
		t.Fatal(err)
	}
	if nf.String() != "'x" {
		t.Errorf("nf = %s", nf)
	}
	if _, err := env.EvalTerm("Ghost", ground); err == nil {
		t.Error("ghost spec accepted by EvalTerm")
	}
}

func TestParseAxiomSide(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Symboltable")
	tm, err := core.ParseAxiomSide(sp, "retrieve(symtab, id)",
		map[string]sig.Sort{"symtab": "Symboltable", "id": "Identifier"}, "Attrs")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Sort != "Attrs" {
		t.Errorf("sort = %s", tm.Sort)
	}
	// Syntax error surfaces.
	if _, err := core.ParseAxiomSide(sp, "retrieve(", nil, ""); err == nil {
		t.Error("syntax error accepted")
	}
	// Expected-sort mismatch surfaces.
	if _, err := core.ParseAxiomSide(sp, "init", nil, "Bool"); err == nil {
		t.Error("sort mismatch accepted")
	}
}
