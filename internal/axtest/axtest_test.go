package axtest_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algspec/internal/axtest"
	"algspec/internal/core"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// loadAll loads the embedded library plus every shipped .spec file.
func loadAll(t *testing.T) (*core.Env, []string) {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	names := append([]string(nil), speclib.Names...)
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no shipped .spec files found")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sps, err := env.Load(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, sp := range sps {
			names = append(names, sp.Name)
		}
	}
	return env, names
}

// TestOracleAllSpecs runs the axiom oracle over every bundled spec: each
// axiom must hold for the minimal and many random instantiations.
func TestOracleAllSpecs(t *testing.T) {
	env, names := loadAll(t)
	for _, name := range names {
		sp := env.MustGet(name)
		t.Run(name, func(t *testing.T) {
			rep := axtest.CheckAxioms(sp, axtest.Config{N: 24})
			if !rep.OK() {
				t.Errorf("oracle failed:\n%s", rep)
			}
			if !strings.Contains(rep.String(), "OK") {
				t.Errorf("report did not say OK: %q", rep.String())
			}
		})
	}
}

// seededBug loads a spec whose later axiom contradicts the rewrite rules:
// [claim] promises dbl adds two per successor, but the earlier (higher
// priority) [d1] only adds one, so every non-trivial instance of [claim]
// fails under normalization.
func seededBug(t *testing.T) *core.Env {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Nat)
	if _, err := env.Load(`
spec Buggy
  uses Nat

  ops
    dbl : Nat -> Nat

  vars
    n : Nat

  axioms
    [d0] dbl(zero) = zero
    [d1] dbl(succ(n)) = succ(dbl(n))
    [claim] dbl(succ(n)) = succ(succ(dbl(n)))
end
`); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestOracleDetectsSeededBug proves the oracle fails on a violated axiom
// and shrinks every counterexample to the minimal binding.
func TestOracleDetectsSeededBug(t *testing.T) {
	env := seededBug(t)
	sp := env.MustGet("Buggy")
	rep := axtest.CheckAxioms(sp, axtest.Config{N: 16, Seed: 7})
	if rep.OK() {
		t.Fatalf("oracle missed the seeded bug:\n%s", rep)
	}
	if rep.FailureCount == 0 || len(rep.Failures) == 0 {
		t.Fatalf("no failures recorded:\n%s", rep)
	}
	zero := term.NewOp("zero", "Nat")
	for i, f := range rep.Failures {
		if f.Axiom.Label != "claim" {
			t.Errorf("failure %d blames axiom [%s], want [claim]", i, f.Axiom.Label)
		}
		if got := f.Assignment["n"]; got == nil || !got.Equal(zero) {
			t.Errorf("failure %d not shrunk to n = zero: %s", i, got)
		}
	}
	// The report must carry the replay seed.
	if !strings.Contains(rep.String(), "replay with -seed 7") {
		t.Errorf("report lacks replay seed:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "counterexample {n = zero}") {
		t.Errorf("report lacks shrunk counterexample:\n%s", rep)
	}
}

// TestOracleSeedReplayDeterministic proves a seed fully determines the
// run: same seed, same instances, same failures, same report.
func TestOracleSeedReplayDeterministic(t *testing.T) {
	env := seededBug(t)
	sp := env.MustGet("Buggy")
	cfg := axtest.Config{N: 16, Seed: 99}
	a := axtest.CheckAxioms(sp, cfg)
	b := axtest.CheckAxioms(sp, cfg)
	if a.String() != b.String() {
		t.Fatalf("same seed, different reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("failure counts differ: %d vs %d", len(a.Failures), len(b.Failures))
	}
	for i := range a.Failures {
		for v, tm := range a.Failures[i].Original {
			if !tm.Equal(b.Failures[i].Original[v]) {
				t.Errorf("failure %d: original binding for %s differs: %s vs %s",
					i, v, tm, b.Failures[i].Original[v])
			}
		}
	}
	// A different seed still finds the bug (the minimal instance is
	// always included), just possibly through different random draws.
	c := axtest.CheckAxioms(sp, axtest.Config{N: 16, Seed: 100})
	if c.OK() {
		t.Fatalf("seed 100 missed the seeded bug:\n%s", c)
	}
}

// TestOracleSkipsTooDeepSorts: when the depth bound is below a variable
// sort's minimum constructor depth, the random draws are skipped with a
// note — but the guaranteed minimal instance is still checked, so the
// axiom is not silently dropped.
func TestOracleSkipsTooDeepSorts(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Nat)
	if _, err := env.Load(`
spec Box
  uses Nat

  ops
    box  : Nat -> Box
    open : Box -> Nat
    same : Box -> Box

  vars
    n : Nat
    b : Box

  axioms
    [o1] open(box(n)) = n
    [i1] same(b) = b
end
`); err != nil {
		t.Fatal(err)
	}
	// Box terms have minimum depth 2 (box over a Nat), so Depth 1 makes
	// the random draws for [i1] infeasible.
	rep := axtest.CheckAxioms(env.MustGet("Box"), axtest.Config{N: 4, Depth: 1})
	if !rep.OK() {
		t.Fatalf("skipped draws counted as failure:\n%s", rep)
	}
	if len(rep.Skipped) != 1 || !strings.Contains(rep.Skipped[0], "[i1]") {
		t.Fatalf("skip not recorded: %#v", rep.Skipped)
	}
	if rep.Instances < 2 {
		t.Fatalf("minimal instances not checked: %d instance(s)", rep.Instances)
	}
}

// TestEnginesAgreeAllSpecs runs the differential driver over every
// bundled spec: all six engine configurations must produce identical
// normal forms, and step counts must match within comparability classes.
func TestEnginesAgreeAllSpecs(t *testing.T) {
	env, names := loadAll(t)
	memoHits := 0
	for _, name := range names {
		sp := env.MustGet(name)
		t.Run(name, func(t *testing.T) {
			rep := axtest.CheckEngines(sp, axtest.DiffConfig{PerOp: 40, RandomPerOp: 10})
			if rep.Corpus == 0 {
				t.Skipf("no ground corpus for %s", name)
			}
			if !rep.OK() {
				t.Errorf("engines disagree:\n%s", rep)
			}
			if len(rep.Engines) != 6 {
				t.Errorf("want 6 engines, got %d", len(rep.Engines))
			}
			for _, e := range rep.Engines {
				memoHits += e.Stats.MemoHits
			}
		})
	}
	if memoHits == 0 {
		t.Errorf("no memo hits anywhere: the memo configurations are not exercising memoization")
	}
}

// TestMutationSmokeKillsAll: every single-axiom RHS mutation of the
// library and shipped specs must be detected by the oracle.
func TestMutationSmokeKillsAll(t *testing.T) {
	env, _ := loadAll(t)
	for _, name := range []string{"Nat", "Queue", "PQueue", "Counter", "Graph"} {
		sp := env.MustGet(name)
		t.Run(name, func(t *testing.T) {
			rep := axtest.CheckMutations(sp, axtest.Config{N: 16})
			if !rep.OK() {
				t.Fatalf("mutant(s) survived:\n%s", rep)
			}
			if rep.Killed() != len(sp.Own) && len(rep.Skipped) == 0 {
				t.Errorf("killed %d of %d axioms with no skips:\n%s", rep.Killed(), len(sp.Own), rep)
			}
			evidence := 0
			for _, m := range rep.Mutants {
				if m.Evidence != nil {
					evidence++
				}
			}
			if evidence == 0 {
				t.Errorf("no mutant recorded counterexample evidence:\n%s", rep)
			}
		})
	}
}

// TestMutationReportNotOKWithoutMutants: a spec with no own axioms
// yields an empty mutant set, which must not read as a passing smoke run.
func TestMutationReportNotOKWithoutMutants(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	if _, err := env.Load(`
spec Inert
  uses Bool

  ops
    mk : -> Inert
end
`); err != nil {
		t.Fatal(err)
	}
	rep := axtest.CheckMutations(env.MustGet("Inert"), axtest.Config{})
	if rep.OK() {
		t.Fatalf("empty mutant set reported OK:\n%s", rep)
	}
}
