package serve_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"algspec/internal/serve"
)

// TestServeWarmAllocBudget is the allocation-regression gate for the
// HTTP warm path: an /v1/normalize cache hit must stay within the
// checked-in allocs/op budget in testdata/serve_alloc_budget. The warm
// path pools its encode buffers and writes its response directly, so
// what remains is mostly the request side (httptest plumbing, JSON
// decode of the request body) plus the cache probe. The budget carries
// headroom over the measured steady state; tripping this gate means a
// handler change started allocating per hit again. Tighten the budget
// when the steady state improves; loosening it is the regression this
// test exists to catch.
func TestServeWarmAllocBudget(t *testing.T) {
	allocGate(t, "testdata/serve_alloc_budget", "serve warm path", func(b *testing.B) {
		benchNormalize(b, serve.DefaultCacheSize, true)
	})
}

// TestServeColdAllocBudget is the same gate for the cold path, with
// the normal-form cache disabled: the request term is read straight
// into the interner, which already holds it, so the term costs no
// allocation and what remains is the request plumbing, the fork and
// the engine's result. Its budget is testdata/serve_cold_alloc_budget.
func TestServeColdAllocBudget(t *testing.T) {
	allocGate(t, "testdata/serve_cold_alloc_budget", "serve cold path", func(b *testing.B) {
		benchNormalize(b, -1, false)
	})
}

// allocGate fails t when bench allocates more per op than the budget
// checked in at path.
func allocGate(t *testing.T, path, what string, bench func(*testing.B)) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed gate skipped in -short mode")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read alloc budget: %v", err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("parse alloc budget %q: %v", raw, err)
	}
	if got := testing.Benchmark(bench).AllocsPerOp(); got > int64(budget) {
		t.Errorf("%s allocates %d allocs/op, budget is %d (%s)", what, got, budget, path)
	} else {
		t.Logf("%s: %d allocs/op within budget %d", what, got, budget)
	}
}
