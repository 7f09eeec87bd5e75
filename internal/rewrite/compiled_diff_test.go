package rewrite_test

import (
	"errors"
	"fmt"
	"testing"

	"algspec/internal/core"
	"algspec/internal/corpus"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// TestCompiledTierMatchesInterpreter is the machine tier's conformance
// gate: over every library spec and the full golden-corpus battery, the
// compiled tier and the interpreter must agree on the normal form, on
// error acceptance, and on the exact step count of every single term.
// Step-count identity is the strong claim — it proves the machine
// performs the same reduction sequence (same strictness short-circuits,
// same if-laziness, same rule priorities), not merely one that happens
// to converge on the same answer. Cutting the fuel short at every step
// of a term must then give the same ErrFuel on both tiers, naming the
// same term, although the machine never builds most of its redexes.
func TestCompiledTierMatchesInterpreter(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)

	covered := 0
	for _, name := range speclib.Names {
		sp := env.MustGet(name)
		battery := corpus.Battery(name)

		compiled := rewrite.New(sp)
		interp := compiled.Fork(rewrite.WithoutCompiledTier())
		if got := compiled.Tier(); got != "compiled" {
			t.Fatalf("%s: default system resolved to tier %q, want compiled", name, got)
		}
		if got := interp.Tier(); got != "interp" {
			t.Fatalf("%s: WithoutCompiledTier fork resolved to tier %q, want interp", name, got)
		}

		// The battery plus every axiom's own ground instances-of-interest:
		// each rule LHS with variables closed over the battery would need a
		// generator; the battery alone exercises every spec (loadgen's own
		// tests pin that), so parse it and normalize term by term.
		var corpus []*term.Term
		for _, src := range battery {
			tm, err := env.ParseTerm(name, src)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", name, src, err)
			}
			corpus = append(corpus, tm)
		}
		if len(corpus) == 0 {
			t.Fatalf("%s: empty golden battery — corpus coverage regressed", name)
		}

		for j, tm := range corpus {
			cBefore := compiled.Stats().Steps
			iBefore := interp.Stats().Steps
			cnf, cerr := compiled.Normalize(tm)
			inf, ierr := interp.Normalize(tm)
			if (cerr == nil) != (ierr == nil) {
				t.Errorf("%s: %s: error asymmetry: compiled %v, interp %v",
					name, battery[j], cerr, ierr)
				continue
			}
			if cerr != nil {
				continue
			}
			if !cnf.Equal(inf) {
				t.Errorf("%s: %s: normal forms differ:\n  compiled: %s\n  interp:   %s",
					name, battery[j], cnf, inf)
			}
			cSteps := compiled.Stats().Steps - cBefore
			iSteps := interp.Stats().Steps - iBefore
			if cSteps != iSteps {
				t.Errorf("%s: %s: step counts differ: compiled %d, interp %d",
					name, battery[j], cSteps, iSteps)
			}
			for fuel := 0; fuel < cSteps; fuel++ {
				var cfe, ife *rewrite.ErrFuel
				_, cerr := compiled.Fork(rewrite.WithMaxSteps(fuel)).Normalize(tm)
				_, ierr := interp.Fork(rewrite.WithMaxSteps(fuel)).Normalize(tm)
				if !errors.As(cerr, &cfe) || !errors.As(ierr, &ife) {
					t.Errorf("%s: %s at fuel %d: compiled %v, interp %v, want ErrFuel from both",
						name, battery[j], fuel, cerr, ierr)
					continue
				}
				if cfe.Steps != ife.Steps || cfe.Last.String() != ife.Last.String() {
					t.Errorf("%s: %s at fuel %d: compiled stuck after %d near %s, interp after %d near %s",
						name, battery[j], fuel, cfe.Steps, cfe.Last, ife.Steps, ife.Last)
				}
			}
		}
		covered++

		cs, is := compiled.Stats(), interp.Stats()
		if cs.CompiledEvals == 0 || cs.InterpEvals != 0 {
			t.Errorf("%s: compiled system ran evals compiled=%d interp=%d, want all compiled",
				name, cs.CompiledEvals, cs.InterpEvals)
		}
		if is.InterpEvals == 0 || is.CompiledEvals != 0 {
			t.Errorf("%s: interp system ran evals compiled=%d interp=%d, want all interp",
				name, is.CompiledEvals, is.InterpEvals)
		}
	}
	if covered != len(speclib.Names) {
		t.Fatalf("covered %d specs, want %d", covered, len(speclib.Names))
	}
}

// TestCompiledTierErrorParity pins the strictness and fuel behaviour of
// the machine tier against the interpreter on terms that reduce to the
// error value or exhaust their budget: acceptance (which error, if any)
// and step counts must match exactly.
func TestCompiledTierErrorParity(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	sp := env.MustGet("Queue")

	cases := []string{
		"front(new)",                  // error axiom fires
		"remove(new)",                 // error axiom fires
		"front(remove(add(new, 'a)))", // error via nested reduction
		"add(remove(new), 'a)",        // strict constructor over an error argument
		"isEmpty?(remove(new))",       // strictness through a predicate
	}
	compiled := rewrite.New(sp)
	interp := compiled.Fork(rewrite.WithoutCompiledTier())
	for _, src := range cases {
		tm, err := env.ParseTerm("Queue", src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		cBefore := compiled.Stats().Steps
		iBefore := interp.Stats().Steps
		cnf, cerr := compiled.Normalize(tm)
		inf, ierr := interp.Normalize(tm)
		if (cerr == nil) != (ierr == nil) {
			t.Fatalf("%s: error asymmetry: compiled %v, interp %v", src, cerr, ierr)
		}
		if cerr == nil && !cnf.Equal(inf) {
			t.Errorf("%s: normal forms differ: compiled %s, interp %s", src, cnf, inf)
		}
		if c, i := compiled.Stats().Steps-cBefore, interp.Stats().Steps-iBefore; c != i {
			t.Errorf("%s: step counts differ: compiled %d, interp %d", src, c, i)
		}
	}
}

// edgeSrc gathers the matcher edge cases no library or shipped spec
// exercises: a non-linear left-hand side (the machine's mEq check), an
// overlap where the earlier, more specific axiom must win, a duplicate
// pattern that can never fire, and ground right-hand sides in tail
// position, which the machine compiles to build nodes, not constants.
const edgeSrc = `
spec Edge
  uses Nat
  ops
    same : Nat, Nat -> Bool
    f    : Nat -> Nat
    g    : Nat -> Nat
    h    : Nat -> Nat
    k    : Nat -> Bool
    r    : Nat -> Nat
  vars n, m : Nat
  axioms
    [refl]   same(n, n) = true
    [hit]    f(zero) = zero
    [any]    f(m) = succ(m)
    [dead]   f(n) = zero
    [tail]   g(n) = f(zero)
    [tailif] h(n) = if same(zero, zero) then f(succ(zero)) else zero
    [stuck]  k(n) = same(zero, succ(zero))
    [symif]  r(n) = if same(zero, succ(zero)) then zero else succ(zero)
end
`

// TestMatcherEdgeCases runs each edge case on both tiers: the compiled
// machine and the MatchBind interpreter must reach the expected normal
// form in the same number of steps, and the interpreter's trace must
// name exactly the expected rules (priority made visible).
func TestMatcherEdgeCases(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Nat, edgeSrc)
	sp := env.MustGet("Edge")
	cases := []struct {
		name, src, want string
		fired           []string
	}{
		{"non-linear/equal", "same(succ(zero), succ(zero))", "true", []string{"refl"}},
		{"non-linear/equal-after-args", "same(addN(zero, succ(zero)), succ(zero))", "true", []string{"add1", "refl"}},
		{"non-linear/unequal", "same(zero, succ(zero))", "same(zero, succ(zero))", nil},
		{"priority/specific-first", "f(zero)", "zero", []string{"hit"}},
		{"priority/general", "f(succ(zero))", "succ(succ(zero))", []string{"any"}},
		{"duplicate-never-fires", "f(f(succ(zero)))", "succ(succ(succ(zero)))", []string{"any", "any"}},
		{"ground-tail/ruled", "g(zero)", "zero", []string{"tail", "hit"}},
		{"ground-tail/if", "h(zero)", "succ(succ(zero))", []string{"tailif", "refl", "any"}},
		{"ground-tail/no-match", "k(zero)", "same(zero, succ(zero))", []string{"stuck"}},
		{"ground-tail/symbolic-if", "r(zero)", "if same(zero, succ(zero)) then zero else succ(zero)", []string{"symif"}},
	}
	compiled := rewrite.New(sp)
	interp := compiled.Fork(rewrite.WithoutCompiledTier())
	var fired []string
	traced := compiled.Fork(rewrite.WithTrace(func(ts rewrite.TraceStep) {
		fired = append(fired, ts.Rule.Label)
	}))
	if compiled.Tier() != "compiled" || interp.Tier() != "interp" || traced.Tier() != "interp" {
		t.Fatalf("tiers = %s/%s/%s, want compiled/interp/interp", compiled.Tier(), interp.Tier(), traced.Tier())
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tm, err := env.ParseTerm("Edge", c.src)
			if err != nil {
				t.Fatal(err)
			}
			compiled.ResetSteps()
			interp.ResetSteps()
			fired = fired[:0]
			cnf := compiled.MustNormalize(tm)
			inf := interp.MustNormalize(tm)
			tnf := traced.MustNormalize(tm)
			for tier, nf := range map[string]*term.Term{"compiled": cnf, "interp": inf, "traced interp": tnf} {
				if nf.String() != c.want {
					t.Errorf("%s: %s = %s, want %s", tier, c.src, nf, c.want)
				}
			}
			if cs, is := compiled.Steps(), interp.Steps(); cs != is {
				t.Errorf("step counts differ: compiled %d, interp %d", cs, is)
			}
			if fmt.Sprint(fired) != fmt.Sprint(c.fired) {
				t.Errorf("interpreter fired %v, want %v", fired, c.fired)
			}
			if got := compiled.Stats().RuleFires; got != len(c.fired) {
				t.Errorf("compiled tier fired %d rule(s), want %d", got, len(c.fired))
			}
		})
	}
}

// TestDiscTreePriorityOverlap pins the priority rule down on a spec whose
// axioms overlap: f(zero) is matched by both [hit] and the later
// catch-all [any]; the earlier axiom must win on both tiers. (The name
// dates from when a discrimination-tree matcher was a third tier.)
func TestDiscTreePriorityOverlap(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Nat)
	if _, err := env.Load(`
spec Pri
  uses Nat

  ops
    f : Nat -> Nat

  vars
    n : Nat

  axioms
    [hit] f(zero) = zero
    [any] f(n) = succ(n)
end
`); err != nil {
		t.Fatal(err)
	}
	sp := env.MustGet("Pri")
	zero := term.NewOp("zero", "Nat")
	one := term.NewOp("succ", "Nat", zero)
	cases := []struct {
		in, want *term.Term
		rule     string
	}{
		{term.NewOp("f", "Nat", zero), zero, "hit"},
		{term.NewOp("f", "Nat", one), term.NewOp("succ", "Nat", one), "any"},
	}
	// The interpreter's trace names the rule that fired.
	t.Run("matchbind", func(t *testing.T) {
		var fired []string
		sys := rewrite.New(sp, rewrite.WithoutCompiledTier(), rewrite.WithTrace(func(ts rewrite.TraceStep) {
			fired = append(fired, ts.Rule.Label)
		}))
		for _, c := range cases {
			fired = fired[:0]
			if nf := sys.MustNormalize(c.in); !nf.Equal(c.want) {
				t.Fatalf("%s = %s, want %s", c.in, nf, c.want)
			}
			if len(fired) != 1 || fired[0] != c.rule {
				t.Fatalf("%s fired %v, want exactly [%s]", c.in, fired, c.rule)
			}
		}
	})
	// The machine keeps no trace: the normal form tells [hit] from [any],
	// and exactly one rule must fire.
	t.Run("compiled", func(t *testing.T) {
		sys := rewrite.New(sp)
		if sys.Tier() != "compiled" {
			t.Fatalf("tier = %s, want compiled", sys.Tier())
		}
		for _, c := range cases {
			before := sys.Stats().RuleFires
			if nf := sys.MustNormalize(c.in); !nf.Equal(c.want) {
				t.Fatalf("%s = %s, want %s", c.in, nf, c.want)
			}
			if got := sys.Stats().RuleFires - before; got != 1 {
				t.Fatalf("%s fired %d rule(s), want 1", c.in, got)
			}
		}
	})
}
