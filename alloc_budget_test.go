package algspec

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"algspec/internal/rewrite"
	"algspec/internal/speclib"
)

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
	raw, err := os.ReadFile("testdata/e1_alloc_budget")
	if err != nil {
		t.Fatalf("read alloc budget: %v", err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("parse alloc budget %q: %v", raw, err)
	}

	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	ops := queueWorkload(64)
	items := []string{"a", "b", "c", "d"}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		runQueueSpec(b, rewrite.New(sp), ops, items)
	})
	if got := res.AllocsPerOp(); got > int64(budget) {
		t.Errorf("E1 spec/ops=64 allocates %d allocs/op, budget is %d (testdata/e1_alloc_budget)",
			got, budget)
	} else {
		t.Logf("E1 spec/ops=64: %d allocs/op within budget %d", got, budget)
	}
}
