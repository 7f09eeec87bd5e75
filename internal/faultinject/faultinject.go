// Package faultinject is a compile-time registry of fault points: named
// seams threaded through production code (the serve pool, the shared
// LRU caches, the rewrite engine's fuel/deadline path) where a test
// harness can deterministically inject failures — added latency,
// refused queue slots, evicted cache entries, forced fuel exhaustion or
// cancellation.
//
// The design goals, in order:
//
//  1. Zero overhead when off. Every Fire() call first loads one shared
//     package-level atomic; while the registry is disarmed that is the
//     entire cost, so fault points may sit on hot paths (the cache Put,
//     the engine's per-step spend) without showing up in profiles.
//  2. Deterministic replay. A fault point fires on every Nth hit of
//     that point (N per-point, from the armed Plan), and hits are only
//     counted while armed. Under a single-threaded workload the hit
//     sequence — and therefore the fire sequence — is a pure function
//     of the request stream, which is how `adt load -seed N` reproduces
//     identical fault schedules run after run.
//  3. Armed only via a test hook. Nothing reads environment variables
//     or flags here; the only way to arm the registry is to call Arm,
//     which production code never does. `adt load` (a test harness in
//     subcommand clothing) and the fault tests are the callers.
//
// Points are registered at package init of the code that owns the seam
// (compile-time registration): duplicate names panic immediately, and
// Names() enumerates every seam linked into the binary, which is what
// `adt load -faults all` arms.
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Rule says how an armed fault point behaves.
type Rule struct {
	// Every fires the fault on every Nth hit of the point (1 = every
	// hit). Zero leaves the point dormant even while the registry is
	// armed.
	Every uint64
	// Delay is the latency a delay-style point injects when it fires;
	// error-style points (saturation, forced fuel/cancel) ignore it.
	Delay time.Duration
}

// Counts is one point's cumulative activity since it was last armed.
type Counts struct {
	Hits  uint64 // times the point was reached while armed
	Fires uint64 // times the fault actually triggered
}

// Point is one registered fault seam. Obtain with Register at package
// init; call Fire at the seam.
type Point struct {
	rule atomic.Pointer[Rule]
	// hits counts only armed traversals, so a fire schedule replays
	// exactly: hit k fires iff k is a multiple of Rule.Every.
	hits  atomic.Uint64
	fires atomic.Uint64
}

var (
	// armed is the global fast-path switch: Fire loads it first and
	// returns immediately while the registry is disarmed.
	armed    atomic.Bool
	mu       sync.Mutex
	registry = map[string]*Point{}
)

// Register creates and registers a fault point. Call it from a package
// variable initializer so every seam exists at compile (link) time; a
// duplicate name is a programming error and panics.
func Register(name string) *Point {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("faultinject: duplicate fault point %q", name))
	}
	p := &Point{}
	registry[name] = p
	return p
}

// Names lists every registered fault point, sorted.
func Names() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Armed reports whether the registry is currently armed. Code that must
// do extra setup work to thread a fault in (e.g. building the engine
// fault hook per request) checks this first so the disarmed path stays
// allocation-free.
func Armed() bool { return armed.Load() }

// Plan maps fault-point names to the rules to arm them with.
type Plan map[string]Rule

// Arm installs the plan and flips the registry on. Points absent from
// the plan stay dormant. Hit and fire counters of every point are reset
// so a run's fault schedule starts from a known state. Arming an
// unknown point name is an error (a misspelled -faults entry must not
// silently test nothing). This is the test hook: only harnesses call it.
func Arm(plan Plan) error {
	mu.Lock()
	defer mu.Unlock()
	for name := range plan {
		if _, ok := registry[name]; !ok {
			return fmt.Errorf("faultinject: unknown fault point %q (registered: %v)", name, namesLocked())
		}
	}
	for name, p := range registry {
		p.hits.Store(0)
		p.fires.Store(0)
		if r, ok := plan[name]; ok {
			rule := r
			p.rule.Store(&rule)
		} else {
			p.rule.Store(nil)
		}
	}
	armed.Store(true)
	return nil
}

// Disarm switches the registry off and clears every rule. Counters are
// left readable (Snapshot after a run reports the run's activity).
func Disarm() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(false)
	for _, p := range registry {
		p.rule.Store(nil)
	}
}

// Snapshot reports every registered point's counters since the last Arm.
func Snapshot() map[string]Counts {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]Counts, len(registry))
	for name, p := range registry {
		out[name] = Counts{Hits: p.hits.Load(), Fires: p.fires.Load()}
	}
	return out
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Fire is the seam call: it reports whether the fault triggers at this
// hit and, when it does, hands back the armed rule (for delay-style
// points to read Rule.Delay). While the registry is disarmed the cost
// is one atomic load and nothing is counted.
func (p *Point) Fire() (Rule, bool) {
	if !armed.Load() {
		return Rule{}, false
	}
	r := p.rule.Load()
	if r == nil || r.Every == 0 {
		return Rule{}, false
	}
	n := p.hits.Add(1)
	if n%r.Every != 0 {
		return Rule{}, false
	}
	p.fires.Add(1)
	return *r, true
}
