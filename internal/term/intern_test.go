package term

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"algspec/internal/sig"
)

func TestInternCanonicalizes(t *testing.T) {
	in := NewInterner()
	a := in.Op("add", "Queue", in.Op("new", "Queue"), in.Atom("x", "Item"))
	b := in.Op("add", "Queue", in.Op("new", "Queue"), in.Atom("x", "Item"))
	if a != b {
		t.Fatalf("structurally equal interned terms are not pointer-equal: %p vs %p", a, b)
	}
	c := in.Op("add", "Queue", in.Op("new", "Queue"), in.Atom("y", "Item"))
	if a == c {
		t.Fatal("distinct terms interned to the same node")
	}
	if !a.Equal(b) || a.Equal(c) {
		t.Fatal("Equal disagrees with interned identity")
	}
}

func TestCanonOfExternalTerm(t *testing.T) {
	in := NewInterner()
	ext := NewOp("front", "Item", NewOp("add", "Queue", NewOp("new", "Queue"), NewAtom("x", "Item")))
	c1 := in.Canon(ext)
	c2 := in.Canon(ext)
	if c1 != c2 {
		t.Fatal("Canon is not canonical")
	}
	if !c1.Equal(ext) {
		t.Fatalf("Canon changed the term: %s vs %s", c1, ext)
	}
	if in.Canon(c1) != c1 {
		t.Fatal("Canon of an interned term must be the identity")
	}
	if !in.Interned(c1) || in.Interned(ext) {
		t.Fatal("Interned misreports ownership")
	}
}

// TestInternForcedCollision is the regression test for the memo-collision
// bug: before hash-consing, the rewrite memo was keyed on a raw uint64
// structural hash, so two distinct terms with colliding hashes silently
// shared a memo entry (wrong normal forms). The interner must resolve
// hash collisions structurally. We force every node into one bucket and
// verify distinct terms still get distinct canonical nodes.
func TestInternForcedCollision(t *testing.T) {
	in := NewInterner()
	in.hashNode = func(Kind, string, sig.Sort, []*Term) uint64 { return 42 }

	a := in.Op("front", "Item", in.Op("new", "Queue"))
	b := in.Op("remove", "Queue", in.Op("new", "Queue"))
	if a == b {
		t.Fatal("forced hash collision conflated two distinct terms")
	}
	if a.Equal(b) {
		t.Fatal("Equal conflated two distinct interned terms")
	}
	// Re-interning under the colliding hash still finds the right nodes.
	if in.Op("front", "Item", in.Op("new", "Queue")) != a {
		t.Fatal("collision bucket lost the first term")
	}
	if in.Op("remove", "Queue", in.Op("new", "Queue")) != b {
		t.Fatal("collision bucket lost the second term")
	}
	// A memo keyed on these canonical pointers can never cross wires the
	// way the old hash-keyed memo could.
	memo := map[*Term]string{a: "nf-of-a", b: "nf-of-b"}
	if memo[a] != "nf-of-a" || memo[b] != "nf-of-b" {
		t.Fatal("pointer-keyed memo entries collided")
	}
}

func TestInternErrCollapses(t *testing.T) {
	in := NewInterner()
	a := in.Err("Queue")
	b := in.Err("Item")
	if a != b {
		t.Fatal("error nodes must collapse onto one canonical node")
	}
	if !a.Equal(NewErr("Stack")) {
		t.Fatal("interned error must equal uninterned error")
	}
}

func TestInternGroundCache(t *testing.T) {
	in := NewInterner()
	g := in.Op("add", "Queue", in.Op("new", "Queue"), in.Atom("x", "Item"))
	if !g.IsGround() {
		t.Fatal("ground interned term reported non-ground")
	}
	v := in.Op("add", "Queue", in.Var("q", "Queue"), in.Atom("x", "Item"))
	if v.IsGround() {
		t.Fatal("open interned term reported ground")
	}
	iff := in.Canon(NewIf(Bool(true), g, g))
	if !iff.IsIf() || iff.Sort != "Queue" {
		t.Fatalf("If interned wrongly: %#v", iff)
	}
}

func TestInternCrossInternerEqual(t *testing.T) {
	in1, in2 := NewInterner(), NewInterner()
	a := in1.Op("add", "Queue", in1.Op("new", "Queue"), in1.Atom("x", "Item"))
	b := in2.Op("add", "Queue", in2.Op("new", "Queue"), in2.Atom("x", "Item"))
	if a == b {
		t.Fatal("different interners produced the same pointer")
	}
	if !a.Equal(b) {
		t.Fatal("cross-interner Equal must fall back to structural comparison")
	}
}

func TestInternConcurrent(t *testing.T) {
	in := NewInterner()
	var wg sync.WaitGroup
	out := make([][]*Term, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tm := in.Op("add", "Queue",
					in.Op("new", "Queue"),
					in.Atom(fmt.Sprintf("x%d", i%17), "Item"))
				out[w] = append(out[w], tm)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range out[w] {
			if out[w][i] != out[0][i] {
				t.Fatalf("worker %d item %d interned to a different node", w, i)
			}
		}
	}
	if in.Size() != 1+17+17 { // new + 17 atoms + 17 adds
		t.Fatalf("interner size = %d, want 35", in.Size())
	}
}

// TestInternAtomOwnsSpelling pins that a freshly interned atom keeps a
// copy of its spelling, not the larger text it was read from (a whole
// request body, which the interner would otherwise keep alive), and
// that interning it again allocates nothing.
func TestInternAtomOwnsSpelling(t *testing.T) {
	src := "front(add(new, 'spelling))" + strings.Repeat(" ", 1<<10)
	spelling := src[strings.Index(src, "'")+1 : strings.Index(src, "))")]
	in := NewInterner()
	a := in.Atom(spelling, "Item")
	if a.Sym != "spelling" {
		t.Fatalf("atom spelled %q", a.Sym)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(a.Sym))); p >= lo && p < lo+uintptr(len(src)) {
		t.Errorf("the interned atom's spelling points into the %d-byte source", len(src))
	}
	if allocs := testing.AllocsPerRun(100, func() { in.Atom(spelling, "Item") }); allocs != 0 {
		t.Errorf("interning the atom again: %v allocs/op, want 0", allocs)
	}
}
