package rewrite_test

import (
	"testing"

	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// Error strictness under the outermost strategy: an error anywhere in an
// operation's arguments — even nested — collapses the whole term to
// error, exactly as under innermost (the paper's single error convention
// is strategy-independent).
func TestOutermostErrorStrictness(t *testing.T) {
	env := speclib.BaseEnv()
	sys := rewrite.New(env.MustGet("Queue"), rewrite.WithStrategy(rewrite.Outermost))

	// remove(new) = error at the root...
	direct := term.NewOp("remove", "Queue", term.NewOp("new", "Queue"))
	if nf := sys.MustNormalize(direct); !nf.IsErr() {
		t.Fatalf("remove(new) = %s, want error", nf)
	}
	// ...and the error must propagate strictly through enclosing
	// operations once the argument reduces to it.
	nested := term.NewOp("front", "Item",
		term.NewOp("add", "Queue",
			term.NewOp("remove", "Queue", term.NewOp("new", "Queue")),
			term.NewAtom("x", "Item")))
	if nf := sys.MustNormalize(nested); !nf.IsErr() {
		t.Fatalf("front(add(remove(new), 'x)) = %s, want error", nf)
	}
	// A literal error argument short-circuits without any rule firing.
	sys.ResetSteps()
	lit := term.NewOp("isEmpty?", "Bool", term.NewErr("Queue"))
	if nf := sys.MustNormalize(lit); !nf.IsErr() {
		t.Fatalf("isEmpty?(error) = %s, want error", nf)
	}
	st := sys.Stats()
	if st.RuleFires != 0 {
		t.Fatalf("error propagation fired %d rules, want 0", st.RuleFires)
	}
	if st.Steps == 0 {
		t.Fatal("error propagation must still consume fuel")
	}
	// An error condition makes the whole conditional error.
	iff := term.NewIf(term.NewErr("Bool"),
		term.NewOp("new", "Queue"), term.NewOp("new", "Queue"))
	iff.Sort = "Queue"
	if nf := sys.MustNormalize(iff); !nf.IsErr() {
		t.Fatalf("if(error,...) = %s, want error", nf)
	}
}
