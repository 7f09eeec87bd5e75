package rewrite_test

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// loopSrc states an axiom that rewrites to itself, so normalization of
// spin(go) can only end by fuel exhaustion or cancellation.
const loopSrc = `
spec Loop
  uses Bool
  ops
    go   : -> Loop
    spin : Loop -> Loop
  vars x : Loop
  axioms
    [spin] spin(x) = spin(x)
end
`

func loopSystem(t testing.TB, opts ...rewrite.Option) (*rewrite.System, *term.Term) {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, loopSrc)
	sys := rewrite.New(env.MustGet("Loop"), opts...)
	work, err := env.ParseTerm("Loop", "spin(go)")
	if err != nil {
		t.Fatal(err)
	}
	return sys, work
}

// An already-ended context cancels a divergent normalization at the
// first poll, long before the fuel limit, and the error unwraps to
// ErrCanceled.
func TestStopFlagCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys, work := loopSystem(t, rewrite.WithContext(ctx))
	_, err := sys.Normalize(work)
	if !errors.Is(err, rewrite.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The poll fires every 1024 steps; an ended context must be seen at
	// the very first poll, not after the 1<<20 default fuel.
	if steps := sys.Steps(); steps > 2048 {
		t.Errorf("cancellation took %d steps, want <= 2048", steps)
	}
}

// A deadline that passes mid-normalization is honoured (this is exactly
// what the serve subsystem relies on for a request's timeout). The fuel
// is far beyond what 5 ms can spend, so only the deadline ends the run.
func TestStopFlagCancelsConcurrently(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	sys, work := loopSystem(t, rewrite.WithContext(ctx), rewrite.WithMaxSteps(1<<30))
	_, err := sys.Normalize(work)
	if !errors.Is(err, rewrite.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// A live context changes nothing: the divergence still ends in ErrFuel
// and a well-behaved term still normalizes.
func TestStopFlagInertWhenUnset(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys, work := loopSystem(t, rewrite.WithContext(ctx), rewrite.WithMaxSteps(4096))
	var fuel *rewrite.ErrFuel
	if _, err := sys.Normalize(work); !errors.As(err, &fuel) {
		t.Fatalf("err = %v, want ErrFuel", err)
	}

	env := speclib.BaseEnv()
	qsys := rewrite.New(env.MustGet("Queue"), rewrite.WithContext(ctx))
	nf := qsys.MustNormalize(term.NewOp("front", "Item",
		term.NewOp("add", "Queue", term.NewOp("new", "Queue"), term.NewAtom("x", "Item"))))
	if nf.String() != "'x" {
		t.Fatalf("normal form = %s", nf)
	}
}

// Forks do not inherit the parent's context: each request installs its
// own via Fork(WithContext(...)).
func TestForkDropsStopFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys, work := loopSystem(t, rewrite.WithContext(ctx), rewrite.WithMaxSteps(2048))
	fork := sys.Fork(rewrite.WithMaxSteps(2048))
	var fuel *rewrite.ErrFuel
	if _, err := fork.Normalize(work); !errors.As(err, &fuel) {
		t.Fatalf("fork err = %v, want ErrFuel (fork must not see the parent's context)", err)
	}
}

// A divergent rewrite chain runs in one machine frame, so its cost in
// allocations is a fixed set-up (the fork, its error, the arena chunks
// the failed call detaches), not a function of its length: a chain that
// nested a frame per fired rule would grow the register stack, and one
// that allocated per fired rule would make 2^16 allocations here.
func TestDivergentChainAllocsBounded(t *testing.T) {
	const fuel = 1 << 16
	sys, work := loopSystem(t)
	if sys.Tier() != "compiled" {
		t.Fatalf("tier = %s, want compiled", sys.Tier())
	}
	var fuelErr *rewrite.ErrFuel
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := sys.Fork(rewrite.WithMaxSteps(fuel)).Normalize(work); !errors.As(err, &fuelErr) {
			t.Fatalf("err = %v, want ErrFuel", err)
		}
	})
	if allocs > 128 {
		t.Errorf("a %d-step diverging chain made %.0f allocations on a fresh fork, want <= 128 (register stack growing linearly?)",
			fuel, allocs)
	} else {
		t.Logf("%d-step diverging chain: %.0f allocations", fuel, allocs)
	}
}

// chainSrc holds four rewrite chains that build no term: a rule that
// rewrites to itself, one whose right-hand side is ground, a pair of
// rules that call each other, and a rule whose right-hand side is an if.
const chainSrc = `
spec Chain
  uses Bool
  ops
    go    : -> Chain
    spin  : Chain -> Chain
    still : Chain -> Chain
    f     : Chain -> Chain
    g     : Chain -> Chain
    h     : Chain -> Chain
  vars x : Chain
  axioms
    [spin]  spin(x) = spin(x)
    [still] still(x) = still(go)
    [f]     f(x) = g(go)
    [g]     g(x) = f(x)
    [h]     h(x) = if true then h(go) else go
end
`

// A rewrite chain runs in constant Go stack on every tier: with the
// stack ceiling at 1 MiB, each chain still runs until its fuel ends it,
// one step past the limit. The compiled tier names the same term in its
// ErrFuel as the interpreter, although the machine never builds the
// redexes of a chain: f(go) fails on f(go), not on the g(go) it passed
// through, and the Nat term fails inside addN's right-hand side, on
// addN(succ(zero), succ(zero)).
func TestRewriteChainsRunInConstantStack(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	const fuel = 1 << 16
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Nat, chainSrc)
	tiers := map[string][]rewrite.Option{
		"compiled":  nil,
		"interp":    {rewrite.WithoutCompiledTier()},
		"outermost": {rewrite.WithStrategy(rewrite.Outermost)},
	}
	cases := []struct {
		spec, src string
		fuel      int
	}{
		{"Chain", "spin(go)", fuel},
		{"Chain", "still(go)", fuel},
		{"Chain", "f(go)", fuel},
		{"Chain", "h(go)", fuel},
		{"Nat", "addN(succ(succ(succ(zero))), succ(zero))", 2},
	}
	for _, c := range cases {
		work, err := env.ParseTerm(c.spec, c.src)
		if err != nil {
			t.Fatal(err)
		}
		last := map[string]string{}
		for tier, opts := range tiers {
			sys := rewrite.New(env.MustGet(c.spec), append(opts, rewrite.WithMaxSteps(c.fuel))...)
			var fe *rewrite.ErrFuel
			if _, err := sys.Normalize(work); !errors.As(err, &fe) {
				t.Errorf("%s on %s: err = %v, want ErrFuel", c.src, tier, err)
				continue
			} else if fe.Steps != c.fuel+1 || sys.Steps() != c.fuel+1 {
				t.Errorf("%s on %s: ErrFuel after %d steps (counter %d), want %d", c.src, tier, fe.Steps, sys.Steps(), c.fuel+1)
			}
			last[tier] = fe.Last.String()
		}
		if last["compiled"] != last["interp"] {
			t.Errorf("%s: ErrFuel names %s on the compiled tier, %s on the interpreter", c.src, last["compiled"], last["interp"])
		}
	}
}

// StatsRecorder totals are exact under concurrent recording, and
// Snapshot may be called while records are in flight (the race detector
// guards the latter).
func TestStatsRecorderConcurrent(t *testing.T) {
	var rec rewrite.StatsRecorder
	const workers, perWorker = 8, 200
	unit := rewrite.Stats{Steps: 3, RuleFires: 2, NativeCalls: 4}
	done := make(chan struct{})
	go func() { // concurrent reader; tears are allowed, races are not
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = rec.Snapshot()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec.Record(unit)
			}
		}()
	}
	wg.Wait()
	<-done
	n := workers * perWorker
	want := rewrite.Stats{Steps: 3 * n, RuleFires: 2 * n, NativeCalls: 4 * n}
	if got := rec.Snapshot(); got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}
