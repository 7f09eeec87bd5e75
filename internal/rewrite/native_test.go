package rewrite_test

import (
	"testing"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// Native evaluation also fires under the outermost strategy.
func TestNativeUnderOutermost(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Symboltable")
	sys := rewrite.New(sp, rewrite.WithStrategy(rewrite.Outermost))
	tm, err := env.ParseTerm("Symboltable", "retrieve(add(init, 'x, 'a1), 'x)")
	if err != nil {
		t.Fatal(err)
	}
	if nf := sys.MustNormalize(tm); nf.String() != "'a1" {
		t.Errorf("outermost retrieve = %s", nf)
	}
}

// Outermost honours fuel limits too.
func TestOutermostFuel(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	if _, err := env.Load(`
spec L2
  uses Bool
  ops
    c : -> L2
    g : L2 -> L2
  vars x : L2
  axioms
    g(x) = g(g(x))
end`); err != nil {
		t.Fatal(err)
	}
	sp, _ := env.Get("L2")
	sys := rewrite.New(sp, rewrite.WithStrategy(rewrite.Outermost), rewrite.WithMaxSteps(100))
	tm := term.NewOp("g", "L2", term.NewOp("c", "L2"))
	if _, err := sys.Normalize(tm); err == nil {
		t.Error("outermost fuel not enforced")
	}
}
