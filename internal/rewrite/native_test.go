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

// SameAtoms returns one of two shared constants, and no evaluator
// (machine, innermost interpreter, outermost interpreter) stamps or
// otherwise changes them when a native call's result is the normal form.
func TestSameAtomsSharedConstants(t *testing.T) {
	x, y := term.NewAtom("x", "Identifier"), term.NewAtom("y", "Identifier")
	yes, _ := rewrite.SameAtoms([]*term.Term{x, x})
	no, _ := rewrite.SameAtoms([]*term.Term{x, y})
	if again, _ := rewrite.SameAtoms([]*term.Term{y, y}); again != yes || !yes.IsTrue() || !no.IsFalse() {
		t.Fatalf("SameAtoms = %v, %v, %v; want one shared true and a false", yes, again, no)
	}
	sp := speclib.BaseEnv().MustGet("Identifier")
	for _, sys := range []*rewrite.System{
		rewrite.New(sp),
		rewrite.New(sp, rewrite.WithoutCompiledTier()),
		rewrite.New(sp, rewrite.WithStrategy(rewrite.Outermost)),
	} {
		for _, pair := range [][2]*term.Term{{x, x}, {x, y}} {
			nf := sys.MustNormalize(term.NewOp("same?", "Bool", pair[0], pair[1]))
			if nf.IsTrue() != (pair[0] == pair[1]) {
				t.Errorf("%s tier: same?(%s, %s) = %s", sys.Tier(), pair[0], pair[1], nf)
			}
		}
		if yes.NormalTag() != 0 || no.NormalTag() != 0 {
			t.Fatalf("%s tier stamped a shared constant", sys.Tier())
		}
	}
}
