package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buggySpec states a [claim] axiom the higher-priority [d1] contradicts,
// so the axiom oracle must fail on it.
const buggySpec = `
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
`

func writeSpec(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTestSubcommandMutationAcceptance is the PR's acceptance criterion:
// adt test specs/pqueue.spec -mutate must detect 100% of single-axiom RHS
// mutations. The flags come AFTER the positional file on purpose, to pin
// the interleaved flag parsing.
func TestTestSubcommandMutationAcceptance(t *testing.T) {
	code, out, errOut := runWith(t, "test", filepath.Join("..", "..", "specs", "pqueue.spec"), "-mutate", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q, out:\n%s", code, errOut, out)
	}
	for _, want := range []string{
		"axiom oracle of PQueue",
		"differential engines of PQueue",
		// PQueue carries a confluence certificate, so the matrix gains
		// the two outermost rows on top of the plain four.
		"6 engine(s)",
		"outermost/w1",
		"mutation smoke of PQueue: 6/6 mutant(s) killed",
		"seed 7: OK",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("out missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "SURVIVED") {
		t.Errorf("a mutant survived:\n%s", out)
	}
}

// TestTestSubcommandFailureReplay proves a failing oracle run prints a
// shrunk counterexample plus the seed, and that the seed reproduces the
// run exactly.
func TestTestSubcommandFailureReplay(t *testing.T) {
	path := writeSpec(t, "buggy.spec", buggySpec)
	code, out, errOut := runWith(t, "test", "-seed", "11", "-diff=false", path)
	if code != exitOracle {
		t.Fatalf("exit = %d (want %d, oracle failure), out:\n%s", code, exitOracle, out)
	}
	for _, want := range []string{
		"axiom oracle of Buggy",
		"FAIL",
		"axiom [claim]",
		"counterexample {n = zero}",
		"replay with -seed 11",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("out missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(errOut, "test suite(s) failed") {
		t.Errorf("stderr = %q", errOut)
	}
	// Deterministic replay: the same seed yields the same report.
	code2, out2, _ := runWith(t, "test", "-seed", "11", "-diff=false", path)
	if code2 != code || out2 != out {
		t.Errorf("replay with the same seed differed:\n--- first ---\n%s\n--- second ---\n%s", out, out2)
	}
}

// TestTestSubcommandSpecFlag restricts the run to one library spec.
func TestTestSubcommandSpecFlag(t *testing.T) {
	code, out, errOut := runWith(t, "test", "-spec", "Queue", "-seed", "3", "-n", "8")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "axiom oracle of Queue") {
		t.Errorf("out = %q", out)
	}
	if strings.Contains(out, "axiom oracle of Nat") {
		t.Errorf("-spec Queue also tested Nat:\n%s", out)
	}
}

// TestTestSubcommandDefaultsToWholeLibrary: with no files and no -spec,
// every library spec with axioms is a suite.
func TestTestSubcommandDefaultsToWholeLibrary(t *testing.T) {
	code, out, errOut := runWith(t, "test", "-seed", "5", "-n", "4", "-diff=false")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q, out:\n%s", code, errOut, out)
	}
	for _, want := range []string{"axiom oracle of Queue", "axiom oracle of Nat", "axiom oracle of Symboltable"} {
		if !strings.Contains(out, want) {
			t.Errorf("out missing %q", want)
		}
	}
	// A fresh seed is chosen and printed when -seed is omitted.
	code, out, _ = runWith(t, "test", "-spec", "Bool", "-n", "2", "-diff=false")
	if code != 0 || !strings.Contains(out, "replay any failure with -seed") {
		t.Errorf("exit = %d, out = %q", code, out)
	}
}

// TestTestSubcommandErrors covers the unknown-spec and missing-file paths.
func TestTestSubcommandErrors(t *testing.T) {
	if code, _, errOut := runWith(t, "test", "-spec", "Ghost"); code != 1 ||
		!strings.Contains(errOut, "Ghost") {
		t.Errorf("unknown spec: exit = %d, stderr = %q", code, errOut)
	}
	if code, _, _ := runWith(t, "test", "ghost.spec"); code != 1 {
		t.Errorf("missing file: exit = %d", code)
	}
}
