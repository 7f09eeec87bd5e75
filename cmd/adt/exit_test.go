package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// inconsistentSpec states two axioms that disagree on f: the oracle
// instantiates [a2], the engine (which fires [a1] first) answers zero,
// and the mismatch is an oracle failure.
const inconsistentSpec = `
spec Incons
  uses Nat

  ops
    f : Nat -> Nat

  vars
    n : Nat

  axioms
    [a1] f(n) = zero
    [a2] f(n) = succ(zero)
end
`

// weakCounterSpec is Counter with [u1] weakened to undo(start) = start:
// the bundled reference implementation (which answers error there, per
// the real spec) must now fail conformance against it.
const weakCounterSpec = `
spec Counter
  uses Bool, Nat

  ops
    start : -> Counter
    inc   : Counter -> Counter
    undo  : Counter -> Counter
    value : Counter -> Nat

  vars
    c : Counter

  axioms
    [u1] undo(start) = start
    [u2] undo(inc(c)) = c
    [v1] value(start) = zero
    [v2] value(inc(c)) = succ(value(c))
end
`

// TestExitCodes pins the documented exit-code contract (cmd/adt/exit.go):
// 0 success, 1 infrastructure, 2 usage, 3 oracle failure, 4 mutation
// survivor — across adt test, adt conform and adt gen-driver, the
// checkers' -depth bound, and the usage errors of every subcommand's
// flags (an unknown flag or spec, a value out of range).
func TestExitCodes(t *testing.T) {
	incons := writeSpec(t, "incons.spec", inconsistentSpec)
	shade := writeSpec(t, "shade.spec", shadedSpec)
	weak := writeSpec(t, "weak-counter.spec", weakCounterSpec)
	counter := filepath.Join("..", "..", "specs", "counter.spec")

	cases := []struct {
		name     string
		args     []string
		wantCode int
		errHas   string
		// outHas must appear on stdout; quiet requires an empty stdout
		// and exactly one line on stderr.
		outHas string
		quiet  bool
	}{
		{
			name:     "test ok",
			args:     []string{"test", "-spec", "Queue", "-n", "4", "-seed", "7", "-diff=false"},
			wantCode: exitOK,
		},
		{
			name:     "unknown subcommand is usage",
			args:     []string{"frobnicate"},
			wantCode: exitUsage,
		},
		{
			name:     "conform without -spec is usage",
			args:     []string{"conform"},
			wantCode: exitUsage,
			errHas:   "requires -spec",
		},
		{
			name:     "gen-driver without -spec is usage",
			args:     []string{"gen-driver"},
			wantCode: exitUsage,
			errHas:   "requires -spec",
		},
		{
			name:     "test oracle failure",
			args:     []string{"test", incons, "-n", "4", "-seed", "7", "-diff=false"},
			wantCode: exitOracle,
			errHas:   "test suite(s) failed",
		},
		{
			name:     "test mutation survivor",
			args:     []string{"test", shade, "-n", "8", "-seed", "7", "-diff=false", "-mutate"},
			wantCode: exitSurvivor,
			errHas:   "survivors",
		},
		{
			name:     "conform reference passes",
			args:     []string{"conform", "-spec", "Counter", "-impl", "ref", counter},
			wantCode: exitOK,
		},
		{
			name:     "conform oracle failure",
			args:     []string{"conform", "-spec", "Counter", "-impl", "ref", weak},
			wantCode: exitOracle,
			errHas:   "conform Counter: FAIL",
		},
		{
			name:     "conform transport error is infrastructure",
			args:     []string{"conform", "-spec", "Queue", "-url", "http://127.0.0.1:1", "-impl", "self"},
			wantCode: exitInfra,
		},
		{
			name:     "gen-driver selftest ok",
			args:     []string{"gen-driver", "-spec", "Queue", "-selftest"},
			wantCode: exitOK,
		},
		{
			name:     "check -depth below 1 is usage",
			args:     []string{"check", "-lib", "-depth", "-1"},
			wantCode: exitUsage,
			errHas:   "-depth must be >= 1",
		},
		{
			name:     "verify -depth below 1 is usage",
			args:     []string{"verify", "-rep", "stack", "-depth", "-1"},
			wantCode: exitUsage,
			errHas:   "-depth must be >= 1",
		},
		{
			name:     "test -depth below 1 is usage",
			args:     []string{"test", "-spec", "Queue", "-depth", "0"},
			wantCode: exitUsage,
			errHas:   "-depth must be >= 1",
		},
		{
			name:     "cover -depth below 1 is usage",
			args:     []string{"cover", "-lib", "-depth", "-1"},
			wantCode: exitUsage,
			errHas:   "-depth must be >= 1",
		},
		{
			name:     "unknown flag is usage",
			args:     []string{"check", "-nope"},
			wantCode: exitUsage,
			errHas:   "flag provided but not defined: -nope",
		},
		{
			name:     "-h prints usage and exits 0",
			args:     []string{"check", "-h"},
			wantCode: exitOK,
		},
		{
			name:     "rejected flag writes one stderr line and no stdout",
			args:     []string{"check", "-nope"},
			wantCode: exitUsage,
			errHas:   "adt: flag provided but not defined: -nope",
			quiet:    true,
		},
		{
			name:     "rejected flag after a positional writes one stderr line",
			args:     []string{"serve", "extra.spec", "-nope"},
			wantCode: exitUsage,
			errHas:   "flag provided but not defined: -nope",
			quiet:    true,
		},
		{
			name:     "malformed flag value writes one stderr line",
			args:     []string{"load", "-rps", "many"},
			wantCode: exitUsage,
			errHas:   "invalid value",
			quiet:    true,
		},
		{
			name:     "-h prints the flag list on stdout",
			args:     []string{"test", "-h"},
			wantCode: exitOK,
			outHas:   "-seed",
		},
		{
			name:     "serve -workers below 0 is usage",
			args:     []string{"serve", "-workers", "-1"},
			wantCode: exitUsage,
			errHas:   "-workers must be >= 0",
		},
		{
			name:     "serve -fuel below 0 is usage",
			args:     []string{"serve", "-fuel", "-1"},
			wantCode: exitUsage,
			errHas:   "-fuel must be >= 0",
		},
		{
			name:     "eval without -spec is usage",
			args:     []string{"eval", "-lib"},
			wantCode: exitUsage,
			errHas:   "requires -spec",
		},
		{
			name:     "eval unknown -engine is usage",
			args:     []string{"eval", "-spec", "Queue", "-engine", "nope", "new"},
			wantCode: exitUsage,
			errHas:   "unknown -engine",
		},
		{
			name:     "verify unknown -rep is usage",
			args:     []string{"verify", "-rep", "nope"},
			wantCode: exitUsage,
			errHas:   "unknown representation",
		},
		{
			name:     "load -replicas below 0 is usage",
			args:     []string{"load", "-replicas", "-1"},
			wantCode: exitUsage,
			errHas:   "-replicas must be >= 0",
		},
		{
			name:     "load conform mix on a cluster is usage",
			args:     []string{"load", "-replicas", "2", "-mix", "conform=1"},
			wantCode: exitUsage,
			errHas:   "requires a single server",
		},
		{
			name:     "load unknown mix kind is usage",
			args:     []string{"load", "-mix", "bogus=1"},
			wantCode: exitUsage,
			errHas:   "unknown mix kind",
		},
		{
			name:     "load unknown fault point is usage",
			args:     []string{"load", "-faults", "nope"},
			wantCode: exitUsage,
			errHas:   "unknown fault point",
		},
		{
			name:     "load -rps 0 is usage",
			args:     []string{"load", "-rps", "0"},
			wantCode: exitUsage,
			errHas:   "positive -rps",
		},
		{
			name:     "test unknown -spec is usage",
			args:     []string{"test", "-spec", "Ghost"},
			wantCode: exitUsage,
			errHas:   "unknown specification",
		},
		{
			name:     "eval unknown -spec is usage",
			args:     []string{"eval", "-spec", "Ghost", "x"},
			wantCode: exitUsage,
			errHas:   "unknown specification",
		},
		{
			name:     "trace unknown -spec is usage",
			args:     []string{"trace", "-spec", "Ghost", "x"},
			wantCode: exitUsage,
			errHas:   "unknown specification",
		},
		{
			name:     "cover unknown -spec is usage",
			args:     []string{"cover", "-lib", "-spec", "Ghost"},
			wantCode: exitUsage,
			errHas:   "unknown specification",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			code, out, errOut := runWith(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.wantCode, out, errOut)
			}
			if tc.errHas != "" && !strings.Contains(errOut, tc.errHas) {
				t.Errorf("stderr %q does not contain %q", errOut, tc.errHas)
			}
			if tc.wantCode == exitOK && errOut != "" {
				t.Errorf("exit 0 with stderr %q", errOut)
			}
			if !strings.Contains(out, tc.outHas) {
				t.Errorf("stdout %q does not contain %q", out, tc.outHas)
			}
			if tc.quiet && (out != "" || strings.Count(errOut, "\n") != 1) {
				t.Errorf("want nothing on stdout and one line on stderr, got stdout %q, stderr %q", out, errOut)
			}
		})
	}
}
