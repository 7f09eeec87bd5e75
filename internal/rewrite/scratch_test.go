package rewrite_test

import (
	"errors"
	"testing"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// growSrc diverges in two ways while building a term. f leaves a pending
// s per step, so the machine nests a register frame per step; g is a
// chain in one frame whose argument grows by one scratch s per step.
const growSrc = `
spec Grow
  uses Bool
  ops
    go : -> Grow
    s  : Grow -> Grow
    f  : Grow -> Grow
    g  : Grow -> Grow
  vars x : Grow
  axioms
    [f] f(x) = s(f(x))
    [g] g(x) = g(s(x))
end
`

// checkFreeList fails the test if the free list holds more sets than its
// bound, or a set past its arena, canon-stack or register bounds.
func checkFreeList(t *testing.T, after string) {
	t.Helper()
	n, oversized := rewrite.FreeSets()
	if n > rewrite.MaxFreeSets {
		t.Errorf("after %s: %d sets on the free list, want <= %d", after, n, rewrite.MaxFreeSets)
	}
	if oversized > 0 {
		t.Errorf("after %s: %d of %d sets on the free list are past their bounds", after, oversized, n)
	}
}

// A large normal form and a failed normalization leave no set past its
// bounds on the free list, the list never holds more than maxFreeSets,
// and a failed normalization's chunks are never lent out again: its
// ErrFuel still names the same term after every pooled set was reused.
func TestFreeListBounds(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Nat, growSrc)
	nat := rewrite.New(env.MustGet("Nat"))

	// addN(succ^1100(zero), zero) rebuilds 1,100 succ nodes as scratch:
	// three node chunks and two argument chunks.
	big := term.NewOp("zero", "Nat")
	for i := 0; i < 1100; i++ {
		big = term.NewOp("succ", "Nat", big)
	}
	nat.HoldScratch()
	if _, err := nat.Normalize(term.NewOp("addN", "Nat", big, term.NewOp("zero", "Nat"))); err != nil {
		t.Fatal(err)
	}
	if grown, _ := nat.HeldScratch(); !grown {
		t.Fatal("the large normal form did not grow the arena past one chunk")
	}
	nat.ReturnScratch()
	checkFreeList(t, "a normalization that grew its arena")

	grow := rewrite.New(env.MustGet("Grow"), rewrite.WithMaxSteps(1<<12))
	work, err := env.ParseTerm("Grow", "f(go)")
	if err != nil {
		t.Fatal(err)
	}
	grow.HoldScratch()
	_, err = grow.Normalize(work)
	var fe *rewrite.ErrFuel
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want ErrFuel", err)
	}
	if _, regs := grow.HeldScratch(); regs <= rewrite.MaxPooledRegs {
		t.Fatalf("the divergence used only %d registers, want > %d", regs, rewrite.MaxPooledRegs)
	}
	grow.ReturnScratch()
	checkFreeList(t, "a normalization that grew its register stack")

	// A chain that fails in one frame and one arena chunk: its set goes
	// back on the list, and its error names g(s(...s(go)...)), whose
	// argument is scratch.
	chain := rewrite.New(env.MustGet("Grow"), rewrite.WithMaxSteps(20))
	if work, err = env.ParseTerm("Grow", "g(go)"); err != nil {
		t.Fatal(err)
	}
	_, err = chain.Normalize(work)
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want ErrFuel", err)
	}
	checkFreeList(t, "a normalization that failed with ErrFuel")
	if n, _ := rewrite.FreeSets(); n == 0 {
		t.Fatal("the failed normalization's set did not go back on the free list")
	}
	stuck := fe.Last.String()
	if len(fe.Last.Args) != 1 || !fe.Last.Args[0].Scratch() {
		t.Fatalf("ErrFuel.Last = %s holds no scratch node; the check below would prove nothing", stuck)
	}

	// Lend out more sets than the list holds at once, build in each, and
	// return them all.
	forks := make([]*rewrite.System, 2*rewrite.MaxFreeSets)
	one := term.NewOp("succ", "Nat", term.NewOp("zero", "Nat"))
	small := term.NewOp("addN", "Nat", one, one)
	for i := range forks {
		forks[i] = nat.Fork()
		forks[i].HoldScratch()
		if _, err := forks[i].Normalize(small); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range forks {
		f.ReturnScratch()
	}
	checkFreeList(t, "returning more sets than the list holds")
	if n, _ := rewrite.FreeSets(); n != rewrite.MaxFreeSets {
		t.Errorf("%d sets on the free list after returning %d, want %d", n, len(forks), rewrite.MaxFreeSets)
	}
	if got := fe.Last.String(); got != stuck {
		t.Errorf("ErrFuel.Last changed from %s to %s: a failed normalization's chunk was lent out again", stuck, got)
	}
}
