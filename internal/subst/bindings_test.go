package subst

import (
	"testing"

	"algspec/internal/term"
)

func bOp(name string, args ...*term.Term) *term.Term { return term.NewOp(name, "Queue", args...) }

func TestMatchBindAgreesWithMatch(t *testing.T) {
	q := term.NewVar("q", "Queue")
	i := term.NewVar("i", "Item")
	pat := bOp("remove", bOp("add", q, i))
	cases := []*term.Term{
		bOp("remove", bOp("add", bOp("new"), term.NewAtom("x", "Item"))),
		bOp("remove", bOp("new")),
		bOp("front", bOp("add", bOp("new"), term.NewAtom("x", "Item"))),
		bOp("remove", bOp("add", term.NewErr("Queue"), term.NewAtom("x", "Item"))),
	}
	for _, c := range cases {
		m := TryMatch(pat, c)
		b, ok := MatchBind(pat, c, nil)
		if (m != nil) != ok {
			t.Fatalf("MatchBind(%s) = %v, Match = %v", c, ok, m != nil)
		}
		if !ok {
			continue
		}
		if len(b) != len(m) {
			t.Fatalf("binding counts differ on %s: %d vs %d", c, len(b), len(m))
		}
		for name, want := range m {
			got, found := b.Lookup(name)
			if !found || !got.Equal(want) {
				t.Fatalf("binding %s differs on %s: %s vs %s", name, c, got, want)
			}
		}
	}
}

func TestMatchBindNonLinear(t *testing.T) {
	x := term.NewVar("x", "Item")
	pat := term.NewOp("pair", "Queue", x, x)
	same := term.NewOp("pair", "Queue", term.NewAtom("a", "Item"), term.NewAtom("a", "Item"))
	diff := term.NewOp("pair", "Queue", term.NewAtom("a", "Item"), term.NewAtom("b", "Item"))
	if _, ok := MatchBind(pat, same, nil); !ok {
		t.Fatal("repeated variable must match equal subterms")
	}
	if _, ok := MatchBind(pat, diff, nil); ok {
		t.Fatal("repeated variable must reject different subterms")
	}
}

func TestMatchBindBufferReuse(t *testing.T) {
	q := term.NewVar("q", "Queue")
	pat := bOp("remove", q)
	var buf Bindings
	for i := 0; i < 3; i++ {
		var ok bool
		buf, ok = MatchBind(pat, bOp("remove", bOp("new")), buf[:0])
		if !ok || len(buf) != 1 {
			t.Fatalf("round %d: ok=%v len=%d", i, ok, len(buf))
		}
	}
}

// Build over an interned right-hand side (the engine stores its rules
// hash-consed) rebuilds only the spine above bound variables: the bound
// value and every variable-free subterm are shared, not copied.
func TestBuildInterned(t *testing.T) {
	in := term.NewInterner()
	q := in.Var("q", "Queue")
	rhs := in.Op("front", "Item", in.Op("remove", "Queue", q))
	val := in.Op("add", "Queue", in.Op("new", "Queue"), in.Atom("x", "Item"))
	b := Bindings{{Name: "q", Term: val}}
	out := b.Build(rhs)
	if out.String() != "front(remove(add(new, 'x)))" {
		t.Fatalf("Build produced %s", out)
	}
	if out.Args[0].Args[0] != val {
		t.Fatal("Build copied the bound value instead of sharing it")
	}
	if ground := in.Op("new", "Queue"); b.Build(ground) != ground {
		t.Fatal("Build rebuilt a variable-free term")
	}
}

func TestApplyIn(t *testing.T) {
	in := term.NewInterner()
	q := term.NewVar("q", "Queue")
	rhs := bOp("remove", q)
	s := Subst{"q": bOp("new")}
	plain := s.Apply(rhs)
	interned := s.ApplyIn(in, rhs)
	if !plain.Equal(interned) {
		t.Fatalf("ApplyIn differs from Apply: %s vs %s", interned, plain)
	}
	if !in.Interned(interned) {
		t.Fatal("ApplyIn must intern rebuilt nodes")
	}
}
