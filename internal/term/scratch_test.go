package term

import (
	"fmt"
	"testing"

	"algspec/internal/sig"
)

const testSort = sig.Sort("T")

// TestArenaResetReusesMemory pins the recycling contract: after Reset,
// the arena hands out the very same node and argument-vector memory, and
// every field of a recycled node is freshly assigned — no stale nfTag,
// hint, owner or scratch flag survives a previous life.
func TestArenaResetReusesMemory(t *testing.T) {
	a := NewArena()
	args := a.ArgSlice(2)
	args[0], args[1] = NewAtom("x", testSort), NewAtom("y", testSort)
	n1 := a.Op("f", testSort, args)
	n1.SetHint(7)
	n1.MarkNormalTag(42)

	a.Reset()
	args2 := a.ArgSlice(2)
	n2 := a.Op("g", testSort, args2)
	if n1 != n2 {
		t.Fatalf("Reset did not recycle node memory: %p vs %p", n1, n2)
	}
	if &args[0] != &args2[0] {
		t.Fatalf("Reset did not recycle arg-vector memory")
	}
	if n2.Sym != "g" {
		t.Errorf("recycled node kept stale symbol %q", n2.Sym)
	}
	if n2.Hint() != 0 {
		t.Errorf("recycled node kept stale hint %d", n2.Hint())
	}
	if n2.NormalTag() != 0 {
		t.Errorf("recycled node kept stale nfTag %d — would masquerade as already-normal", n2.NormalTag())
	}
	if !n2.Scratch() {
		t.Errorf("arena node not marked scratch")
	}
}

// TestArenaDetachPreservesEscapedTerms pins the error-path escape hatch:
// terms handed out before Detach stay valid after the arena moves on,
// where a Reset would have scribbled over them.
func TestArenaDetachPreservesEscapedTerms(t *testing.T) {
	a := NewArena()
	escaped := a.Op("keep", testSort, nil)
	a.Detach()
	fresh := a.Op("fresh", testSort, nil)
	if escaped == fresh {
		t.Fatalf("Detach recycled memory an escaped term still references")
	}
	if escaped.Sym != "keep" {
		t.Errorf("escaped term corrupted: %q", escaped.Sym)
	}
}

// TestArenaArgSliceOversize pins the fallback for argument vectors wider
// than a chunk: they come from the heap, not a chunk, and later chunked
// allocations are unaffected.
func TestArenaArgSliceOversize(t *testing.T) {
	a := NewArena()
	big := a.ArgSlice(arenaArgChunk + 1)
	if len(big) != arenaArgChunk+1 {
		t.Fatalf("oversize ArgSlice has length %d", len(big))
	}
	small := a.ArgSlice(3)
	if len(small) != 3 {
		t.Fatalf("chunked ArgSlice after oversize has length %d", len(small))
	}
	if a.ArgSlice(0) != nil {
		t.Errorf("zero-length ArgSlice should be nil")
	}
}

// TestArenaChunkGrowth crosses the node- and arg-chunk boundaries and
// checks every node stays distinct and intact.
func TestArenaChunkGrowth(t *testing.T) {
	a := NewArena()
	seen := make(map[*Term]bool)
	for i := 0; i < arenaNodeChunk*2+10; i++ {
		n := a.Op(fmt.Sprintf("op%d", i%13), testSort, a.ArgSlice(1))
		if seen[n] {
			t.Fatalf("node %d: arena handed out live memory twice", i)
		}
		seen[n] = true
	}
}

// TestCanonBatchMatchesCanon pins the cached batch-interning path (the
// compiled tier's Canon boundary) against plain Canon: same canonical
// node, for scratch inputs, interned inputs and mixed spines, across
// repeated calls that exercise both cache hits and misses.
func TestCanonBatchMatchesCanon(t *testing.T) {
	in := NewInterner()
	cc := NewCanonCache()
	a := NewArena()

	build := func(depth int, tag string) *Term {
		cur := in.Canon(NewAtom(tag, testSort))
		for i := 0; i < depth; i++ {
			args := a.ArgSlice(1)
			args[0] = cur
			cur = a.Op("s", testSort, args)
			if i%2 == 1 {
				// Mixed spine: intern some levels so the walk crosses the
				// owned/foreign boundary both ways.
				cur = in.Canon(cur)
			}
		}
		return cur
	}

	for round := 0; round < 3; round++ {
		for depth := 0; depth < 6; depth++ {
			scratch := build(depth, "z")
			got := in.CanonBatch(scratch, cc)
			want := in.Canon(cloneTerm(scratch))
			if got != want {
				t.Fatalf("round %d depth %d: CanonBatch %p != Canon %p (%s vs %s)",
					round, depth, got, want, got, want)
			}
			if !in.Interned(got) {
				t.Fatalf("round %d depth %d: CanonBatch result not interned", round, depth)
			}
		}
		a.Reset()
	}
}

// TestCanonCacheCollision forces two shapes onto the same cache line and
// checks the verify-on-hit logic never returns the wrong node.
func TestCanonCacheCollision(t *testing.T) {
	in := NewInterner()
	cc := NewCanonCache()
	x := in.Canon(NewAtom("x", testSort))
	// Same symbol, same child, alternating arity: every lookup verifies
	// structure, so even a guaranteed index collision (same sym pointer,
	// same child pointer) returns the right canonical node.
	f1 := NewOp("f", testSort, x)
	f2 := NewOp("f", testSort, x, x)
	c1 := in.CanonBatch(f1, cc)
	c2 := in.CanonBatch(f2, cc)
	if c1 == c2 {
		t.Fatalf("distinct shapes interned to one node")
	}
	if in.CanonBatch(NewOp("f", testSort, x), cc) != c1 {
		t.Errorf("re-canon of arity-1 shape drifted")
	}
	if in.CanonBatch(NewOp("f", testSort, x, x), cc) != c2 {
		t.Errorf("re-canon of arity-2 shape drifted")
	}
}

// TestCanonCacheNeverCrossesInterners: the rewrite engine pools its
// canon caches, so one cache serves many interners in turn. A leaf such
// as new has no argument pointer that tells two interners' nodes apart,
// so only the owner check keeps a hit from returning another
// interner's node.
func TestCanonCacheNeverCrossesInterners(t *testing.T) {
	in1, in2 := NewInterner(), NewInterner()
	cc := NewCanonCache()
	leaf := NewOp("new", testSort)
	for round := 0; round < 2; round++ {
		for _, in := range []*Interner{in1, in2} {
			got := in.CanonBatch(leaf, cc)
			if !in.Interned(got) {
				t.Fatalf("round %d: CanonBatch returned a node of another interner", round)
			}
			if want := in.Canon(leaf); got != want {
				t.Fatalf("round %d: CanonBatch %p != Canon %p", round, got, want)
			}
			if f := in.CanonBatch(NewOp("f", testSort, leaf), cc); f.Args[0] != got {
				t.Fatalf("round %d: f(new) holds another interner's new", round)
			}
		}
	}
}

// Grown flags an arena past its first node chunk or first argument
// chunk, and a canon cache whose argument stack outgrew its bound.
func TestGrown(t *testing.T) {
	a := NewArena()
	x := NewAtom("x", testSort)
	for i := 0; i < arenaNodeChunk; i++ {
		a.Op("f", testSort, nil)
	}
	if a.Grown() {
		t.Fatal("one full node chunk reported as grown")
	}
	a.Op("f", testSort, nil)
	if !a.Grown() {
		t.Fatal("a second node chunk not reported as grown")
	}
	a.Detach()
	if a.Grown() {
		t.Fatal("a detached arena reported as grown")
	}
	a.ArgSlice(arenaArgChunk)
	a.ArgSlice(1)
	if !a.Grown() {
		t.Fatal("a second argument chunk not reported as grown")
	}

	in := NewInterner()
	cc := NewCanonCache()
	in.CanonBatch(NewOp("f", testSort, x, x), cc)
	if cc.Grown() {
		t.Fatal("a two-argument term grew the canon stack")
	}
	wide := make([]*Term, canonStackMax+1)
	for i := range wide {
		wide[i] = NewOp("g", testSort, x)
	}
	in.CanonBatch(NewOp("f", testSort, wide...), cc)
	if !cc.Grown() {
		t.Fatalf("a %d-argument term did not grow the canon stack past its bound", len(wide))
	}
}

// cloneTerm deep-copies a term into plain heap nodes, so Canon sees a
// fresh foreign spine (CanonBatch may have mutated nothing, but the
// original spine's nodes could be arena memory a later Reset reuses).
func cloneTerm(t *Term) *Term {
	args := make([]*Term, len(t.Args))
	for i, a := range t.Args {
		args[i] = cloneTerm(a)
	}
	c := &Term{Kind: t.Kind, Sym: t.Sym, Sort: t.Sort, Args: args}
	return c
}
