package rewrite_test

import (
	"fmt"
	"testing"

	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// batchTerms builds a deterministic mixed workload of queue observations.
func batchTerms(n int) []*term.Term {
	out := make([]*term.Term, 0, n)
	for i := 0; i < n; i++ {
		state := term.NewOp("new", "Queue")
		for j := 0; j <= i%7; j++ {
			state = term.NewOp("add", "Queue", state, term.NewAtom(fmt.Sprintf("x%d", (i+j)%5), "Item"))
		}
		if i%3 == 0 {
			state = term.NewOp("remove", "Queue", state)
		}
		if i%2 == 0 {
			out = append(out, term.NewOp("front", "Item", state))
		} else {
			out = append(out, term.NewOp("isEmpty?", "Bool", state))
		}
	}
	return out
}

// TestNormalizeAllMatchesSequential checks that the batched API returns
// exactly the sequential results — same normal forms, same merged step
// counters — for several worker counts. Run under -race in CI, this also
// exercises the forked systems' shared interner concurrently.
func TestNormalizeAllMatchesSequential(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	items := batchTerms(173)

	seq := rewrite.New(sp)
	want := make([]*term.Term, len(items))
	for i, it := range items {
		want[i] = seq.MustNormalize(it)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sys := rewrite.New(sp)
			nfs, errs := sys.NormalizeAll(items, workers)
			if errs != nil {
				t.Fatalf("unexpected errors: %v", errs)
			}
			for i := range nfs {
				if !nfs[i].Equal(want[i]) {
					t.Fatalf("item %d: got %s, want %s", i, nfs[i], want[i])
				}
			}
			if got := sys.Stats().Steps; got != seq.Stats().Steps {
				t.Fatalf("merged steps = %d, want %d (must not depend on worker count)", got, seq.Stats().Steps)
			}
		})
	}
}

// TestNormalizeAllSharedInterner runs a larger batch through the default
// system, whose worker forks all intern their normal forms into the one
// shared interner (CanonBatch at the machine tier's result boundary);
// race-freedom is the race detector's job, this test keeps the workload
// honest.
func TestNormalizeAllSharedInterner(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Nat")
	var items []*term.Term
	for i := 0; i < 64; i++ {
		n := term.NewOp("zero", "Nat")
		for j := 0; j < i%13; j++ {
			n = term.NewOp("succ", "Nat", n)
		}
		items = append(items, term.NewOp("addN", "Nat", n, n))
	}
	sys := rewrite.New(sp)
	nfs, errs := sys.NormalizeAll(items, 8)
	if errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	for i, nf := range nfs {
		if nf == nil || !nf.IsGround() || !sys.Interner().Interned(nf) {
			t.Fatalf("item %d: bad or uninterned normal form %v", i, nf)
		}
	}
}

// TestNormalizeAllFuelErrors: per-item errors land in the right slots and
// do not abort the rest of the batch.
func TestNormalizeAllFuelErrors(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Nat")
	big := term.NewOp("zero", "Nat")
	for i := 0; i < 40; i++ {
		big = term.NewOp("succ", "Nat", big)
	}
	expensive := term.NewOp("addN", "Nat", big, big)
	cheap := term.NewOp("addN", "Nat", term.NewOp("zero", "Nat"), term.NewOp("zero", "Nat"))
	items := []*term.Term{cheap, expensive, cheap, expensive}

	sys := rewrite.New(sp, rewrite.WithMaxSteps(10))
	nfs, errs := sys.NormalizeAll(items, 2)
	if errs == nil {
		t.Fatal("expected fuel errors")
	}
	for i, it := range items {
		if it == cheap {
			if errs[i] != nil || nfs[i] == nil {
				t.Fatalf("cheap item %d should have normalized: err=%v", i, errs[i])
			}
		} else {
			if errs[i] == nil || nfs[i] != nil {
				t.Fatalf("expensive item %d should have exhausted fuel", i)
			}
		}
	}
}
