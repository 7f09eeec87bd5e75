package algspec

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"algspec/internal/complete"
	"algspec/internal/consist"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
)

// readBudget reads a checked-in allocs/op budget.
func readBudget(t *testing.T, path string) int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read alloc budget: %v", err)
	}
	budget, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		t.Fatalf("parse alloc budget %q: %v", raw, err)
	}
	return budget
}

// TestE1AllocBudget is the allocation-regression gate for the compiled
// tier: the E1 queue workload (ops=64) must stay within the checked-in
// allocs/op budget in testdata/e1_alloc_budget. The budget carries
// headroom over the measured steady state (all remaining allocations
// are the benchmark's own input-term construction — the engine runs
// allocation-free between Canon boundaries), so tripping this gate
// means an engine change started allocating per reduction again. Tighten
// the budget when the steady state improves; loosening it is the
// regression this test exists to catch.
func TestE1AllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed gate skipped in -short mode")
	}
	budget := readBudget(t, "testdata/e1_alloc_budget")

	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	ops := queueWorkload(64)
	items := []string{"a", "b", "c", "d"}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		runQueueSpec(b, rewrite.New(sp), ops, items)
	})
	if got := res.AllocsPerOp(); got > budget {
		t.Errorf("E1 spec/ops=64 allocates %d allocs/op, budget is %d (testdata/e1_alloc_budget)",
			got, budget)
	} else {
		t.Logf("E1 spec/ops=64: %d allocs/op within budget %d", got, budget)
	}
}

// TestCheckPassAllocBudget is the allocation-regression gate for the
// ground checkers: one complete.CheckDynamic and consist.CheckGround
// pass over the library at depth 4, one worker each, over the
// precompiled systems the CLI's check -lib uses, must stay within the
// allocs/op budget in testdata/checkpass_alloc_budget. The probes are
// built in slabs and normal forms classified without allocating, so
// most of what remains is the engine's interpreter tier (the outermost
// half of the ground check); tripping this gate means the probe
// planner or a classifier started allocating per probe again.
func TestCheckPassAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed gate skipped in -short mode")
	}
	budget := readBudget(t, "testdata/checkpass_alloc_budget")

	env := speclib.BaseEnv()
	systems := make([]*rewrite.System, len(speclib.Names))
	for i, name := range speclib.Names {
		sys, err := env.System(name)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, name := range speclib.Names {
				sp := env.MustGet(name)
				complete.CheckDynamic(sp, complete.DynamicConfig{Depth: 4, System: systems[j], Workers: 1})
				consist.CheckGround(sp, consist.GroundConfig{Depth: 4, System: systems[j], Workers: 1})
			}
		}
	})
	if got := res.AllocsPerOp(); got > budget {
		t.Errorf("check pass allocates %d allocs/op, budget is %d (testdata/checkpass_alloc_budget)",
			got, budget)
	} else {
		t.Logf("check pass: %d allocs/op within budget %d", got, budget)
	}
}
