package rewrite_test

import (
	"strings"
	"sync"
	"testing"

	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// Fork yields an independent engine over the same compiled rules: fresh
// counters, same answers, and safe concurrent use from many goroutines.
func TestForkIndependentState(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	base := rewrite.New(sp)
	work := term.NewOp("front", "Item",
		term.NewOp("add", "Queue", term.NewOp("new", "Queue"), term.NewAtom("x", "Item")))

	if nf := base.MustNormalize(work); nf.String() != "'x" {
		t.Fatalf("base normal form = %s", nf)
	}
	baseSteps := base.Steps()
	if baseSteps == 0 {
		t.Fatal("base performed no steps")
	}

	f := base.Fork()
	if f.Steps() != 0 {
		t.Fatalf("fork starts with steps = %d, want 0", f.Steps())
	}
	if nf := f.MustNormalize(work); nf.String() != "'x" {
		t.Fatalf("fork normal form = %s", nf)
	}
	if base.Steps() != baseSteps {
		t.Fatal("normalizing in the fork mutated the parent's counters")
	}
	if f.Spec() != base.Spec() {
		t.Fatal("fork compiled a different spec")
	}
	if f.Interner() != base.Interner() {
		t.Fatal("fork must share the parent's interner")
	}
}

// Fork accepts options, e.g. a different strategy per worker.
func TestForkWithStrategy(t *testing.T) {
	env := speclib.BaseEnv()
	base := rewrite.New(env.MustGet("Queue"))
	outer := base.Fork(rewrite.WithStrategy(rewrite.Outermost))
	work := term.NewOp("isEmpty?", "Bool",
		term.NewOp("remove", "Queue",
			term.NewOp("add", "Queue", term.NewOp("new", "Queue"), term.NewAtom("a", "Item"))))
	if got := outer.MustNormalize(work).String(); got != "true" {
		t.Fatalf("outermost fork got %s", got)
	}
	// The parent keeps its innermost strategy.
	if got := base.MustNormalize(work).String(); got != "true" {
		t.Fatalf("parent got %s", got)
	}
}

// Many forks normalizing concurrently over the shared program and
// interner must be race-free (run with -race) and agree on results.
func TestForkConcurrentNormalization(t *testing.T) {
	env := speclib.BaseEnv()
	base := rewrite.New(env.MustGet("Nat"))
	mk := func(n int) *term.Term {
		out := term.NewOp("zero", "Nat")
		for i := 0; i < n; i++ {
			out = term.NewOp("succ", "Nat", out)
		}
		return out
	}
	var wg sync.WaitGroup
	results := make([]string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sys := base.Fork()
			nf := sys.MustNormalize(term.NewOp("addN", "Nat", mk(6), mk(7)))
			results[w] = nf.String()
		}(w)
	}
	wg.Wait()
	for w, got := range results {
		if got != results[0] {
			t.Fatalf("worker %d disagreed: %s vs %s", w, got, results[0])
		}
	}
	if !strings.Contains(results[0], "succ(") {
		t.Fatalf("unexpected normal form %s", results[0])
	}
}

// Stats breaks the step counter down and Add merges counters.
func TestStatsCounters(t *testing.T) {
	env := speclib.BaseEnv()
	sys := rewrite.New(env.MustGet("Queue"))
	work := term.NewOp("front", "Item",
		term.NewOp("remove", "Queue",
			term.NewOp("add", "Queue",
				term.NewOp("add", "Queue", term.NewOp("new", "Queue"), term.NewAtom("a", "Item")),
				term.NewAtom("b", "Item"))))
	sys.MustNormalize(work)
	st := sys.Stats()
	if st.Steps == 0 || st.RuleFires == 0 {
		t.Fatalf("stats = %+v, want nonzero steps and rule fires", st)
	}
	if st.Steps != sys.Steps() {
		t.Fatalf("Stats().Steps = %d, Steps() = %d", st.Steps, sys.Steps())
	}
	sum := st.Add(rewrite.Stats{Steps: 1, RuleFires: 2, NativeCalls: 4, CompiledEvals: 5, InterpEvals: 6})
	if sum.Steps != st.Steps+1 || sum.RuleFires != st.RuleFires+2 || sum.NativeCalls != st.NativeCalls+4 ||
		sum.CompiledEvals != st.CompiledEvals+5 || sum.InterpEvals != st.InterpEvals+6 {
		t.Fatalf("Add merged wrongly: %+v", sum)
	}
	if s := sum.String(); !strings.Contains(s, "steps=") || !strings.Contains(s, "native-calls=") {
		t.Fatalf("Stats.String() = %q", s)
	}
	sys.ResetSteps()
	if sys.Stats() != (rewrite.Stats{}) {
		t.Fatalf("ResetSteps left counters: %+v", sys.Stats())
	}
}

// NativeCalls counts native evaluations separately from rule fires.
func TestStatsCountsNativeCalls(t *testing.T) {
	env := speclib.BaseEnv()
	sys := rewrite.New(env.MustGet("Identifier"))
	work := term.NewOp("same?", "Bool",
		term.NewAtom("x", "Identifier"), term.NewAtom("x", "Identifier"))
	if got := sys.MustNormalize(work).String(); got != "true" {
		t.Fatalf("same? got %s", got)
	}
	if sys.Stats().NativeCalls == 0 {
		t.Fatal("native call not counted")
	}
}

// forkSink keeps the forks TestForkAllocs counts live, so the compiler
// cannot elide their allocation.
var forkSink *rewrite.System

// Fork copies nothing the program owns: the natives and both dispatch
// tables are built once per program, and the machine's scratch is
// borrowed per normalization, so a fork of a compiled System allocates
// exactly the System.
func TestForkAllocs(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range []string{"Queue", "Symboltable", "Identifier", "SymtabImpl"} {
		base := rewrite.New(env.MustGet(name))
		if base.Tier() != "compiled" {
			t.Fatalf("%s: tier = %s, want compiled", name, base.Tier())
		}
		if allocs := testing.AllocsPerRun(100, func() { forkSink = base.Fork() }); allocs != 1 {
			t.Errorf("%s: Fork made %.0f allocations, want 1 (the System)", name, allocs)
		}
	}
}
