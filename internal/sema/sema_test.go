package sema_test

import (
	"strings"
	"testing"

	"algspec/internal/core"
	"algspec/internal/sig"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// load parses and checks sources in order inside a fresh env preloaded
// with Bool/Identifier/Attrs, returning the error from the last source.
func load(t *testing.T, srcs ...string) (*core.Env, error) {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Identifier, speclib.Attrs)
	var err error
	for _, src := range srcs {
		_, err = env.Load(src)
		if err != nil {
			return env, err
		}
	}
	return env, nil
}

func TestBuildQueue(t *testing.T) {
	env, err := load(t, speclib.Queue)
	if err != nil {
		t.Fatal(err)
	}
	sp := env.MustGet("Queue")
	if got, _ := sp.PrincipalSort(); got != "Queue" {
		t.Errorf("principal sort = %q", got)
	}
	if !sp.Sig.IsParam("Item") {
		t.Error("Item not a param")
	}
	if len(sp.Own) != 6 {
		t.Errorf("own axioms = %d", len(sp.Own))
	}
	// Inherited Bool axioms come first in All.
	if sp.All[0].Owner != "Bool" {
		t.Errorf("first inherited owner = %s", sp.All[0].Owner)
	}
	// Constructors are new and add.
	ctors := sp.Constructors("Queue")
	if len(ctors) != 2 || ctors[0].Name != "new" || ctors[1].Name != "add" {
		t.Errorf("constructors = %v", ctors)
	}
}

func TestBuildLabelsDefault(t *testing.T) {
	env, err := load(t, `
spec P
  uses Bool
  ops
    mk : -> P
    f  : P -> Bool
  axioms
    f(mk) = true
end`)
	if err != nil {
		t.Fatal(err)
	}
	sp := env.MustGet("P")
	if sp.Own[0].Label != "1" {
		t.Errorf("default label = %q", sp.Own[0].Label)
	}
}

// buildErr asserts a source fails with a message containing want.
func buildErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := load(t, src)
	if err == nil {
		t.Fatalf("accepted bad spec (want %q):\n%s", want, src)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err.Error(), want)
	}
}

func TestErrors(t *testing.T) {
	buildErr(t, `spec A uses Missing end`, "unknown specification")
	buildErr(t, `spec A ops c : -> Nope end`, "unknown range sort")
	buildErr(t, `spec A ops c : Nope -> A end`, "unknown sort")
	buildErr(t, `spec A ops c : -> A  c : -> A end`, "declared twice")
	buildErr(t, `spec A uses Bool ops c : -> A vars x : Nope end`, "unknown sort")
	buildErr(t, `spec A uses Bool ops c : -> A vars x, x : A end`, "declared twice")
	buildErr(t, `spec A ops c : -> A vars c : A end`, "shadows an operation")
	buildErr(t, `spec A uses Bool ops c : -> A  f : A -> Bool axioms f(boom) = true end`, "unknown operation")
	buildErr(t, `spec A uses Bool ops c : -> A  f : A -> Bool axioms f(c, c) = true end`, "wants 1")
	buildErr(t, `spec A uses Bool ops c : -> A  f : A -> Bool axioms f(true) = true end`, "required here")
	buildErr(t, `spec A uses Bool ops c : -> A  f : A -> Bool vars x : A axioms x = c end`, "must be an operation application")
	buildErr(t, `spec A uses Bool ops c : -> A  f : A -> Bool axioms error = true end`, "left-hand side")
	buildErr(t, `spec A uses Bool ops c : -> A  f : A -> Bool axioms if true then true else true = true end`, "left-hand side")
	buildErr(t, `spec A uses Bool ops c : -> A f : A -> Bool vars x : A axioms f(if true then x else x) = true end`, "may not appear on the left")
	buildErr(t, `spec A uses Bool ops c : -> A  f : A -> A vars x, y : A axioms f(x) = y end`, "does not occur on the left")
	buildErr(t, `spec A uses Bool ops native n : A, A -> Bool  c : -> A axioms n(c, c) = true end`, "native operation")
	buildErr(t, `spec A uses Bool ops c : -> A  f : A -> Bool axioms f(c) = c end`, "required here")
}

func TestAtomInference(t *testing.T) {
	// Single atom sort in scope: unannotated atoms resolve to it.
	env, err := load(t, `
spec A
  uses Bool, Identifier
  ops
    mk : Identifier -> A
    f  : A -> Bool
  axioms
    f(mk('x)) = true
end`)
	if err != nil {
		t.Fatal(err)
	}
	ax := env.MustGet("A").Own[0]
	atomArg := ax.LHS.Args[0].Args[0]
	if atomArg.Kind != term.Atom || atomArg.Sort != "Identifier" {
		t.Errorf("atom = %#v", atomArg)
	}

	// Two atom sorts in scope and no expected sort from context: the
	// atom is ambiguous; an annotation disambiguates.
	st := speclib.BaseEnv()
	if _, err := st.ParseTerm("Symboltable", "'x"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous atom error = %v", err)
	}
	if _, err := st.ParseTerm("Symboltable", "'x:Attrs"); err != nil {
		t.Errorf("annotated atom rejected: %v", err)
	}
	env2, err := load(t, `
spec C
  uses Bool, Identifier, Attrs
  ops
    mk : Identifier -> C
    g  : C -> Bool
  axioms
    g(mk('x:Identifier)) = true
end`)
	if err != nil {
		t.Fatal(err)
	}
	_ = env2
}

func TestAtomSortErrors(t *testing.T) {
	buildErr(t, `
spec D
  uses Bool
  ops
    c : -> D
    f : D -> Bool
  axioms
    f('x:D) = true
end`, "not an atom or parameter sort")
	buildErr(t, `
spec E
  uses Bool
  ops
    c : -> E
    f : E -> Bool
  axioms
    f('x) = true
end`, "")
}

func TestErrorSortInference(t *testing.T) {
	// error adopts the sort required by context; as a bare RHS it
	// adopts the LHS sort.
	env, err := load(t, `
spec F
  uses Bool
  ops
    c : -> F
    f : F -> F
  axioms
    f(c) = error
end`)
	if err != nil {
		t.Fatal(err)
	}
	ax := env.MustGet("F").Own[0]
	if !ax.RHS.IsErr() {
		t.Errorf("RHS = %s", ax.RHS)
	}
}

func TestIfBranchInference(t *testing.T) {
	// One branch error, the other determines the sort.
	env, err := load(t, `
spec G
  uses Bool
  ops
    c : -> G
    p : G -> Bool
    f : G -> G
  vars x : G
  axioms
    f(x) = if p(x) then error else c
end`)
	if err != nil {
		t.Fatal(err)
	}
	rhs := env.MustGet("G").Own[0].RHS
	if !rhs.IsIf() || rhs.Sort != "G" {
		t.Errorf("RHS = %s sort %s", rhs, rhs.Sort)
	}
	// Condition must be boolean.
	buildErr(t, `
spec H
  uses Bool
  ops
    c : -> H
    f : H -> H
  vars x : H
  axioms
    f(x) = if c then x else x
end`, "required here")
}

func TestUsesDeduplication(t *testing.T) {
	// Diamond: both paths import Bool; its axioms appear once.
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	env.MustLoad(`spec L uses Bool ops lv : -> L end`)
	env.MustLoad(`spec R uses Bool ops rv : -> R end`)
	sps, err := env.Load(`spec D uses L, R ops dv : -> D end`)
	if err != nil {
		t.Fatal(err)
	}
	sp := sps[0]
	count := 0
	for _, a := range sp.All {
		if a.Owner == "Bool" {
			count++
		}
	}
	if count != 6 {
		t.Errorf("Bool axioms appear %d times, want 6", count)
	}
}

func TestCheckGroundExpr(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")

	tm, err := env.ParseTerm("Queue", "front(add(new, 'x))")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Sort != "Item" {
		t.Errorf("sort = %s", tm.Sort)
	}
	// Free variables are rejected in ground terms.
	if _, err := env.ParseTerm("Queue", "front(q)"); err == nil {
		t.Error("free variable accepted in ground term")
	}
	// With explicit vars it works.
	tm2, err := core.ParseAxiomSide(sp, "front(q)", map[string]sig.Sort{"q": "Queue"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tm2.Vars()) != 1 {
		t.Errorf("vars = %v", tm2.Vars())
	}
}

func TestPrincipalSortOnlyWhenMentioned(t *testing.T) {
	// A spec that only defines ops over existing sorts gets no
	// spurious principal sort.
	env, err := load(t, `
spec Util
  uses Bool
  ops
    nand : Bool, Bool -> Bool
  vars a, b : Bool
  axioms
    nand(a, b) = not(and(a, b))
end`)
	if err != nil {
		t.Fatal(err)
	}
	sp := env.MustGet("Util")
	if sp.Sig.HasSort("Util") {
		t.Error("spurious principal sort added")
	}
	if _, ok := sp.PrincipalSort(); ok {
		t.Error("PrincipalSort reported")
	}
}

func TestVarApplication(t *testing.T) {
	buildErr(t, `
spec I
  uses Bool
  ops
    c : -> I
    f : I -> Bool
  vars x : I
  axioms
    f(x()) = true
end`, "cannot be applied")
}
