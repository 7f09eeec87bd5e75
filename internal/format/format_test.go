package format_test

import (
	"strings"
	"testing"

	"algspec/internal/ast"
	"algspec/internal/core"
	"algspec/internal/format"
	"algspec/internal/lang"
	"algspec/internal/speclib"
)

// Formatting is idempotent on every library spec.
func TestIdempotent(t *testing.T) {
	for i, src := range speclib.Sources {
		once, err := format.Source(src)
		if err != nil {
			t.Fatalf("spec %d (%s): %v", i, speclib.Names[i], err)
		}
		twice, err := format.Source(once)
		if err != nil {
			t.Fatalf("%s: reformat: %v\n%s", speclib.Names[i], err, once)
		}
		if once != twice {
			t.Errorf("%s: formatting not idempotent:\n--- once ---\n%s\n--- twice ---\n%s",
				speclib.Names[i], once, twice)
		}
	}
}

// Formatted output parses to a semantically identical specification:
// load both into envs and compare the checked spec renderings.
func TestRoundTripPreservesSemantics(t *testing.T) {
	envA := core.NewEnv()
	envB := core.NewEnv()
	for i, src := range speclib.Sources {
		formatted, err := format.Source(src)
		if err != nil {
			t.Fatal(err)
		}
		spsA, err := envA.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		spsB, err := envB.Load(formatted)
		if err != nil {
			t.Fatalf("%s: formatted source fails to load: %v\n%s", speclib.Names[i], err, formatted)
		}
		if spsA[0].String() != spsB[0].String() {
			t.Errorf("%s: semantics drifted:\n%s\nvs\n%s", speclib.Names[i], spsA[0], spsB[0])
		}
	}
}

func TestCanonicalShape(t *testing.T) {
	got, err := format.Source(`spec  Q
   uses   Bool
 param Item
 ops  new : ->Q
      add:Q , Item->Q
 vars q:Q
 axioms [a1] add( q , 'x ) = new
end`)
	if err != nil {
		t.Fatal(err)
	}
	want := `spec Q
  uses Bool
  param Item

  ops
    new :         -> Q
    add : Q, Item -> Q

  vars
    q : Q

  axioms
    [a1] add(q, 'x) = new
end
`
	if got != want {
		t.Errorf("canonical form:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestSyntaxErrorPropagates(t *testing.T) {
	if _, err := format.Source("spec ???"); err == nil {
		t.Error("bad source formatted")
	}
}

func TestNativeAndAnnotations(t *testing.T) {
	got, err := format.Source(`
spec I
  uses Bool
  atoms I
  ops
    native same? : I, I -> Bool
    f : I -> Bool
  axioms
    f('x:I) = if same?('a, 'b) then true else error
end`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"native same?", "'x:I", "if same?('a, 'b) then true else error"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestExprFallback(t *testing.T) {
	// Unknown node types render visibly rather than panicking.
	if got := format.Expr(nil); !strings.Contains(got, "<") {
		t.Errorf("fallback = %q", got)
	}
}

func TestMultipleSpecsSeparated(t *testing.T) {
	f, err := lang.Parse("spec A ops c : -> A end spec B ops d : -> B end")
	if err != nil {
		t.Fatal(err)
	}
	out := format.File(f)
	if strings.Count(out, "spec ") != 2 || !strings.Contains(out, "end\n\nspec B") {
		t.Errorf("separation:\n%s", out)
	}
	var _ = ast.Pos{} // keep the ast import meaningful for Expr tests
}
