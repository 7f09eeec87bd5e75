package subst

import (
	"math/rand"
	"testing"
	"testing/quick"

	"algspec/internal/term"
)

func newQ() *Term          { return term.NewOp("new", "Queue") }
func atom(s string) *Term  { return term.NewAtom(s, "Item") }
func qvar(n string) *Term  { return term.NewVar(n, "Queue") }
func ivar(n string) *Term  { return term.NewVar(n, "Item") }
func add(q, i *Term) *Term { return term.NewOp("add", "Queue", q, i) }

type Term = term.Term

func TestBind(t *testing.T) {
	s := New()
	if err := s.Bind("q", newQ()); err != nil {
		t.Fatal(err)
	}
	// Rebinding to an equal term is fine.
	if err := s.Bind("q", newQ()); err != nil {
		t.Errorf("equal rebind rejected: %v", err)
	}
	// Rebinding to a different term is a conflict.
	if err := s.Bind("q", add(newQ(), atom("x"))); err == nil {
		t.Error("conflicting rebind accepted")
	}
}

func TestApplySharing(t *testing.T) {
	s := Subst{"q": newQ()}
	ground := add(newQ(), atom("x"))
	if s.Apply(ground) != ground {
		t.Error("Apply copied a term without bound variables")
	}
	open := add(qvar("q"), atom("x"))
	got := s.Apply(open)
	if got.String() != "add(new, 'x)" {
		t.Errorf("Apply = %s", got)
	}
	// Unbound variables stay.
	half := add(qvar("q"), ivar("i"))
	if got := s.Apply(half); got.String() != "add(new, i)" {
		t.Errorf("Apply = %s", got)
	}
}

func TestDomainAndString(t *testing.T) {
	s := Subst{"b": newQ(), "a": newQ()}
	d := s.Domain()
	if len(d) != 2 || d[0] != "a" || d[1] != "b" {
		t.Errorf("Domain = %v", d)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestMatchBasics(t *testing.T) {
	pat := add(qvar("q"), ivar("i"))
	tm := add(add(newQ(), atom("x")), atom("y"))
	m := TryMatch(pat, tm)
	if m == nil {
		t.Fatal("match failed")
	}
	if !m["q"].Equal(add(newQ(), atom("x"))) || !m["i"].Equal(atom("y")) {
		t.Errorf("bindings = %v", m)
	}
	// Head mismatch.
	if TryMatch(pat, newQ()) != nil {
		t.Error("matched wrong head")
	}
	// Sort-respecting: a Queue variable does not match an Item term.
	if TryMatch(qvar("q"), atom("x")) != nil {
		t.Error("variable matched wrong sort")
	}
	// Atom patterns match only the same atom.
	if TryMatch(atom("x"), atom("y")) != nil {
		t.Error("different atoms matched")
	}
	if TryMatch(atom("x"), atom("x")) == nil {
		t.Error("same atoms did not match")
	}
}

func TestMatchNonLinear(t *testing.T) {
	// A repeated variable must bind consistently.
	pat := add(add(qvar("q"), ivar("i")), ivar("i"))
	same := add(add(newQ(), atom("x")), atom("x"))
	diff := add(add(newQ(), atom("x")), atom("y"))
	if TryMatch(pat, same) == nil {
		t.Error("consistent non-linear match failed")
	}
	if TryMatch(pat, diff) != nil {
		t.Error("inconsistent non-linear match succeeded")
	}
}

func TestMatchError(t *testing.T) {
	// error matches only the error pattern, never variables.
	if TryMatch(qvar("q"), term.NewErr("Queue")) != nil {
		t.Error("variable captured error")
	}
	if TryMatch(term.NewErr("Queue"), term.NewErr("Item")) == nil {
		t.Error("error pattern did not match error")
	}
	if TryMatch(term.NewErr("Queue"), newQ()) != nil {
		t.Error("error pattern matched non-error")
	}
	// An operation pattern does not match error either.
	pat := add(qvar("q"), ivar("i"))
	if TryMatch(pat, term.NewErr("Queue")) != nil {
		t.Error("op pattern matched error")
	}
}

func TestMatchVarTargetIsConstant(t *testing.T) {
	// Variables in the target are constants: pattern var binds to them,
	// but an op pattern does not match a var target.
	if m := TryMatch(qvar("q"), qvar("r")); m == nil || !m["q"].Equal(qvar("r")) {
		t.Error("pattern var should bind target var")
	}
	if TryMatch(add(qvar("q"), ivar("i")), qvar("r")) != nil {
		t.Error("op pattern matched var target")
	}
}

func TestUnifyBasics(t *testing.T) {
	// add(q, 'x) =? add(new, i)  =>  q := new, i := 'x
	u, ok := Unify(add(qvar("q"), atom("x")), add(newQ(), ivar("i")))
	if !ok {
		t.Fatal("unify failed")
	}
	if !u["q"].Equal(newQ()) || !u["i"].Equal(atom("x")) {
		t.Errorf("unifier = %v", u)
	}
	// Clash.
	if _, ok := Unify(newQ(), add(qvar("q"), ivar("i"))); ok {
		t.Error("unified clashing heads")
	}
	// Occurs check.
	if _, ok := Unify(qvar("q"), add(qvar("q"), atom("x"))); ok {
		t.Error("occurs check failed")
	}
	// Same variable unifies with itself.
	if _, ok := Unify(qvar("q"), qvar("q")); !ok {
		t.Error("q =? q failed")
	}
	// Sort clash between var and term.
	if _, ok := Unify(qvar("q"), atom("x")); ok {
		t.Error("unified across sorts")
	}
}

func TestUnifyIsUnifier(t *testing.T) {
	cases := [][2]*Term{
		{add(qvar("q"), atom("x")), add(newQ(), ivar("i"))},
		{add(add(qvar("q"), ivar("i")), ivar("j")), add(qvar("r"), atom("z"))},
		{qvar("a"), qvar("b")},
		{add(qvar("q"), ivar("i")), add(qvar("q"), ivar("i"))},
	}
	for _, c := range cases {
		u, ok := Unify(c[0], c[1])
		if !ok {
			t.Errorf("no unifier for %s =? %s", c[0], c[1])
			continue
		}
		a, b := u.Apply(c[0]), u.Apply(c[1])
		if !a.Equal(b) {
			t.Errorf("unifier does not unify: %s vs %s (u=%v)", a, b, u)
		}
	}
}

func TestUnifyErrors(t *testing.T) {
	// error unifies with error and with variables.
	if _, ok := Unify(term.NewErr("Queue"), term.NewErr("Item")); !ok {
		t.Error("error =? error failed")
	}
	u, ok := Unify(qvar("q"), term.NewErr("Queue"))
	if !ok || !u["q"].IsErr() {
		t.Error("var =? error failed")
	}
	if _, ok := Unify(term.NewErr("Queue"), newQ()); ok {
		t.Error("error unified with non-error op")
	}
}

func TestRenameApart(t *testing.T) {
	tm := add(qvar("q"), ivar("i"))
	r := SuffixedVars(t, RenameApart(tm, 3))
	if r[0] != "q#3" || r[1] != "i#3" {
		t.Errorf("RenameApart = %v", r)
	}
	// No shared variables remain between the renamed copies.
	a := RenameApart(tm, 1)
	b := RenameApart(tm, 2)
	for _, va := range a.Vars() {
		if b.HasVar(va.Sym) {
			t.Error("renamed-apart terms share a variable")
		}
	}
}

// SuffixedVars extracts variable names in order.
func SuffixedVars(t *testing.T, tm *Term) []string {
	t.Helper()
	var out []string
	for _, v := range tm.Vars() {
		out = append(out, v.Sym)
	}
	return out
}

// Property: matching a pattern against its own instantiation recovers a
// substitution that maps the pattern back onto the instance.
func TestQuickMatchApplyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pat := add(qvar("q"), ivar("i"))
		inst := Subst{
			"q": randomGround(rng, 3),
			"i": atom(string(rune('a' + rng.Intn(3)))),
		}
		tm := inst.Apply(pat)
		m := TryMatch(pat, tm)
		if m == nil {
			return false
		}
		return m.Apply(pat).Equal(tm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randomGround(rng *rand.Rand, depth int) *Term {
	if depth == 0 || rng.Intn(3) == 0 {
		return newQ()
	}
	return add(randomGround(rng, depth-1), atom(string(rune('a'+rng.Intn(3)))))
}
