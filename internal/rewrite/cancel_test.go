package rewrite_test

import (
	"errors"
	"sync"
	"sync/atomic"
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

// A pre-raised stop flag cancels a divergent normalization at the first
// poll, long before the fuel limit, and the error unwraps to ErrCanceled.
func TestStopFlagCancels(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	sys, work := loopSystem(t, rewrite.WithStop(&stop))
	_, err := sys.Normalize(work)
	if !errors.Is(err, rewrite.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The poll fires every 1024 steps; a pre-raised flag must be seen at
	// the very first poll, not after the 1<<20 default fuel.
	if steps := sys.Steps(); steps > 2048 {
		t.Errorf("cancellation took %d steps, want <= 2048", steps)
	}
}

// A flag raised from another goroutine mid-normalization is honoured
// (this is exactly what the serve subsystem does on deadline expiry).
func TestStopFlagCancelsConcurrently(t *testing.T) {
	var stop atomic.Bool
	sys, work := loopSystem(t, rewrite.WithStop(&stop))
	go func() {
		time.Sleep(5 * time.Millisecond)
		stop.Store(true)
	}()
	_, err := sys.Normalize(work)
	if !errors.Is(err, rewrite.ErrCanceled) && !errors.As(err, new(*rewrite.ErrFuel)) {
		t.Fatalf("err = %v, want ErrCanceled (or ErrFuel on a very fast box)", err)
	}
}

// An unraised flag changes nothing: the divergence still ends in ErrFuel
// and a well-behaved term still normalizes.
func TestStopFlagInertWhenUnset(t *testing.T) {
	var stop atomic.Bool
	sys, work := loopSystem(t, rewrite.WithStop(&stop), rewrite.WithMaxSteps(4096))
	var fuel *rewrite.ErrFuel
	if _, err := sys.Normalize(work); !errors.As(err, &fuel) {
		t.Fatalf("err = %v, want ErrFuel", err)
	}

	env := speclib.BaseEnv()
	qsys := rewrite.New(env.MustGet("Queue"), rewrite.WithStop(&stop))
	nf := qsys.MustNormalize(term.NewOp("front", "Item",
		term.NewOp("add", "Queue", term.NewOp("new", "Queue"), term.NewAtom("x", "Item"))))
	if nf.String() != "'x" {
		t.Fatalf("normal form = %s", nf)
	}
}

// Forks do not inherit the parent's stop flag: each request installs its
// own via Fork(WithStop(...)).
func TestForkDropsStopFlag(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	sys, work := loopSystem(t, rewrite.WithStop(&stop), rewrite.WithMaxSteps(2048))
	fork := sys.Fork(rewrite.WithMaxSteps(2048))
	var fuel *rewrite.ErrFuel
	if _, err := fork.Normalize(work); !errors.As(err, &fuel) {
		t.Fatalf("fork err = %v, want ErrFuel (fork must not see the parent's flag)", err)
	}
}

// A divergent rewrite chain nests one machine frame per fired rule, so
// the register stack must grow geometrically: a fixed growth increment
// copies the whole live stack every few frames, about two thousand
// allocations and a second of copying over 2^16 steps, where doubling
// needs a few dozen allocations.
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

// StatsRecorder totals are exact under concurrent recording, and
// Snapshot may be called while records are in flight (the race detector
// guards the latter).
func TestStatsRecorderConcurrent(t *testing.T) {
	var rec rewrite.StatsRecorder
	const workers, perWorker = 8, 200
	unit := rewrite.Stats{Steps: 3, RuleFires: 2, MemoHits: 1, NativeCalls: 4}
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
	want := rewrite.Stats{Steps: 3 * n, RuleFires: 2 * n, MemoHits: n, NativeCalls: 4 * n}
	if got := rec.Snapshot(); got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}
