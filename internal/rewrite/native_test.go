package rewrite_test

import (
	"testing"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// WithNative overrides the engine-supplied semantics of a native
// operation.
func TestWithNativeOverride(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Identifier")
	// Invert equality: same? answers false on equal atoms.
	sys := rewrite.New(sp, rewrite.WithNative("same?", func(args []*term.Term) (*term.Term, bool) {
		if args[0].Kind != term.Atom || args[1].Kind != term.Atom {
			return nil, false
		}
		return term.Bool(args[0].Sym != args[1].Sym), true
	}))
	tm := term.NewOp("same?", "Bool",
		term.NewAtom("x", "Identifier"), term.NewAtom("x", "Identifier"))
	if nf := sys.MustNormalize(tm); !nf.IsFalse() {
		t.Errorf("overridden same? = %s", nf)
	}
}

// HashAtomMod realizes the paper's HASH: Identifier -> [1..n] as a
// native over bucket constants.
func TestHashAtomMod(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Identifier)
	sps, err := env.Load(`
spec Buckets
  uses Bool, Identifier
  ops
    b0 : -> Buckets
    b1 : -> Buckets
    b2 : -> Buckets
    native hash : Identifier -> Buckets
end`)
	if err != nil {
		t.Fatal(err)
	}
	sp := sps[0]
	names := []string{"b0", "b1", "b2"}
	sys := rewrite.New(sp, rewrite.WithNative("hash", rewrite.HashAtomMod(3, func(k int) *term.Term {
		return term.NewOp(names[k], "Buckets")
	})))
	// Deterministic, in range, and stable across calls.
	seen := map[string]string{}
	for _, id := range []string{"x", "y", "alpha", "beta", "x"} {
		tm := term.NewOp("hash", "Buckets", term.NewAtom(id, "Identifier"))
		nf := sys.MustNormalize(tm)
		ok := false
		for _, n := range names {
			if nf.Sym == n {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("hash('%s) = %s, not a bucket", id, nf)
		}
		if prev, dup := seen[id]; dup && prev != nf.Sym {
			t.Fatalf("hash('%s) unstable: %s then %s", id, prev, nf.Sym)
		}
		seen[id] = nf.Sym
	}
	// Non-atom argument: left unevaluated (a normal form).
	open := term.NewOp("hash", "Buckets", term.NewVar("v", "Identifier"))
	if nf := sys.MustNormalize(open); nf.Sym != "hash" {
		t.Errorf("hash(var) = %s", nf)
	}
}

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
