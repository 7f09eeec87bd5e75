package consist_test

import (
	"testing"

	"algspec/internal/consist"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
)

// The ground consistency check must produce an identical report for any
// worker count (each worker forks innermost- and outermost-strategy
// systems from the same compiled program; run with -race).
func TestCheckGroundParallelDeterministic(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range []string{"Queue", "Stack", "Nat"} {
		sp := env.MustGet(name)
		seq := consist.CheckGround(sp, consist.GroundConfig{Depth: 3, Workers: 1})
		parl := consist.CheckGround(sp, consist.GroundConfig{Depth: 3, Workers: 4})
		if seq.String() != parl.String() {
			t.Errorf("%s: reports differ between 1 and 4 workers:\n%s\nvs\n%s", name, seq, parl)
		}
		if seq.Checked == 0 || seq.Checked != parl.Checked {
			t.Errorf("%s: checked counts: seq=%d par=%d", name, seq.Checked, parl.Checked)
		}
	}
}

// The supplied base system keeps its own strategy and state: CheckGround
// forks per-strategy copies rather than flipping the shared one.
func TestCheckGroundUsesSuppliedSystem(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	sys := rewrite.New(sp)
	r := consist.CheckGround(sp, consist.GroundConfig{Depth: 3, System: sys, Workers: 4})
	if !r.OK() {
		t.Fatalf("queue ground check failed: %s", r)
	}
	if sys.Steps() != 0 {
		t.Errorf("supplied system was mutated: steps = %d", sys.Steps())
	}
}
