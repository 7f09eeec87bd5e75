package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runWith(t *testing.T, args ...string) (code int, out, errOut string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code = run(args, strings.NewReader(""), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestEval(t *testing.T) {
	code, out, errOut := runWith(t, "eval", "-spec", "Queue", "front(add(add(new, 'x), 'y))")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if strings.TrimSpace(out) != "'x" {
		t.Errorf("out = %q", out)
	}
}

func TestEvalMultipleTerms(t *testing.T) {
	code, out, errOut := runWith(t, "eval", "-spec", "Queue", "-workers", "4",
		"front(add(add(new, 'x), 'y))",
		"isEmpty?(new)",
		"front(remove(add(add(new, 'a), 'b)))")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	want := []string{"'x", "true", "'b"}
	if len(lines) != len(want) {
		t.Fatalf("out = %q", out)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q (results must stay in input order)", i, lines[i], want[i])
		}
	}
}

func TestEvalStats(t *testing.T) {
	code, out, errOut := runWith(t, "eval", "-spec", "Queue", "-stats",
		"front(remove(add(add(add(new, 'a), 'b), 'c)))")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || lines[0] != "'b" {
		t.Fatalf("out = %q", out)
	}
	if !strings.HasPrefix(lines[1], "stats: tier=compiled steps=") ||
		!strings.Contains(lines[1], "rule-fires=") ||
		!strings.Contains(lines[1], "native-calls=") ||
		!strings.Contains(lines[1], "interned=") {
		t.Errorf("stats line = %q", lines[1])
	}
	if strings.Contains(lines[1], "steps=0 ") {
		t.Errorf("stats reported zero steps for a reducible term: %q", lines[1])
	}
}

func TestCheckWorkersFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.alg")
	src := `
spec Tiny
  uses Bool
  ops
    mk : -> Tiny
    up : Tiny -> Tiny
    f  : Tiny -> Bool
  vars x : Tiny
  axioms
    f(mk) = true
    f(up(x)) = f(x)
end
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"1", "4"} {
		code, out, errOut := runWith(t, "check", "-lib", "-workers", w, path)
		if code != 0 {
			t.Fatalf("workers=%s: exit = %d, stderr = %q, out = %q", w, code, errOut, out)
		}
		if !strings.Contains(out, "dynamic completeness of Tiny") {
			t.Errorf("workers=%s: missing dynamic report: %q", w, out)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	// Missing -spec.
	if code, _, _ := runWith(t, "eval", "front(new)"); code != exitUsage {
		t.Errorf("missing -spec: exit = %d", code)
	}
	// Unknown spec.
	if code, _, errOut := runWith(t, "eval", "-spec", "Ghost", "x"); code != exitUsage ||
		!strings.Contains(errOut, "unknown specification") {
		t.Errorf("unknown spec: exit = %d, stderr = %q", code, errOut)
	}
	// Bad term.
	if code, _, _ := runWith(t, "eval", "-spec", "Queue", "front(nope)"); code != 1 {
		t.Errorf("bad term: exit = %d", code)
	}
}

func TestTrace(t *testing.T) {
	code, out, errOut := runWith(t, "trace", "-spec", "Nat", "addN(succ(zero), zero)")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "normal form: succ(zero)") {
		t.Errorf("out = %q", out)
	}
	if !strings.Contains(out, "[add2]") && !strings.Contains(out, "[add1]") {
		t.Errorf("no rule labels in trace: %q", out)
	}
}

func TestCheckLibrary(t *testing.T) {
	code, out, errOut := runWith(t, "check", "-lib", "-depth", "3")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "sufficient-completeness of Queue: OK") {
		t.Errorf("out missing Queue completeness: %q", out[:200])
	}
}

func TestCheckDetectsIncompleteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.spec")
	src := `
spec Broken
  uses Bool
  ops
    mk : -> Broken
    up : Broken -> Broken
    f  : Broken -> Bool
  vars x : Broken
  axioms
    f(mk) = true
end
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runWith(t, "check", "-lib", path)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "MISSING") || !strings.Contains(out, "f(up(") {
		t.Errorf("out = %q", out)
	}
	if !strings.Contains(errOut, "check(s) failed") {
		t.Errorf("stderr = %q", errOut)
	}
}

func TestInfo(t *testing.T) {
	code, out, _ := runWith(t, "info", "-lib")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{
		"spec Queue: 5 own operation(s), 6 own axiom(s), uses Bool",
		"constructor add : Queue, Item -> Queue",
		"extension   retrieve : Symboltable, Identifier -> Attrs",
		"native      same? : Identifier, Identifier -> Bool",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info missing %q", want)
		}
	}
}

func TestVerify(t *testing.T) {
	code, out, errOut := runWith(t, "verify", "-rep", "list", "-depth", "3")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "axiom [9]") {
		t.Errorf("out = %q", out)
	}
	// Without the assumption the stack representation fails.
	code, _, errOut = runWith(t, "verify", "-rep", "stack", "-assume=false", "-depth", "3")
	if code != 1 || !strings.Contains(errOut, "verification failed") {
		t.Errorf("exit = %d, stderr = %q", code, errOut)
	}
	// Unknown representation.
	if code, _, _ := runWith(t, "verify", "-rep", "wat"); code != exitUsage {
		t.Errorf("unknown rep: exit = %d", code)
	}
}

func TestLoadUserSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pair.spec")
	src := `
spec Flag
  uses Bool
  ops
    off : -> Flag
    on  : Flag -> Flag
    lit? : Flag -> Bool
  vars f : Flag
  axioms
    lit?(off) = false
    lit?(on(f)) = true
end
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runWith(t, "eval", "-spec", "Flag", path, "lit?(on(on(off)))")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if strings.TrimSpace(out) != "true" {
		t.Errorf("out = %q", out)
	}
	// Missing file.
	if code, _, _ := runWith(t, "info", filepath.Join(dir, "ghost.spec")); code != 1 {
		t.Errorf("missing file: exit = %d", code)
	}
}

func TestUsageAndUnknown(t *testing.T) {
	if code, _, _ := runWith(t); code != 2 {
		t.Errorf("no args: exit = %d", code)
	}
	if code, _, errOut := runWith(t, "frobnicate"); code != 2 ||
		!strings.Contains(errOut, "unknown subcommand") {
		t.Errorf("unknown: exit = %d, stderr = %q", code, errOut)
	}
	if code, out, _ := runWith(t, "help"); code != 0 ||
		!strings.Contains(out, "algebraic specification toolchain") {
		t.Errorf("help: exit = %d, out = %q", code, out)
	}
}

func TestEvalEngineFlag(t *testing.T) {
	// Both tiers must agree on the answer; -stats surfaces which tier ran.
	for _, tc := range []struct{ engine, tier string }{
		{"compiled", "tier=compiled"},
		{"interp", "tier=interp"},
	} {
		code, out, errOut := runWith(t, "eval", "-spec", "Queue", "-engine", tc.engine, "-stats",
			"front(add(add(new, 'x), 'y))")
		if code != 0 {
			t.Fatalf("-engine %s: exit = %d, stderr = %q", tc.engine, code, errOut)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if lines[0] != "'x" {
			t.Errorf("-engine %s: out = %q", tc.engine, out)
		}
		if !strings.Contains(lines[1], tc.tier) {
			t.Errorf("-engine %s: stats line %q missing %q", tc.engine, lines[1], tc.tier)
		}
	}
}

func TestEvalEngineFlagRejectsUnknown(t *testing.T) {
	code, _, errOut := runWith(t, "eval", "-spec", "Queue", "-engine", "turbo", "front(new)")
	if code == 0 {
		t.Fatalf("unknown -engine accepted")
	}
	if !strings.Contains(errOut, `unknown -engine "turbo"`) {
		t.Errorf("stderr = %q, want unknown-engine usage error", errOut)
	}
}
