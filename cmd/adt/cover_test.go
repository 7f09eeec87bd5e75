package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCoverSingleSpec(t *testing.T) {
	code, out, errOut := runWith(t, "cover", "-lib", "-spec", "Queue", "-depth", "4")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "axiom coverage of Queue") ||
		!strings.Contains(out, "all own axioms fired") {
		t.Errorf("out = %q", out)
	}
	// Hot rules are listed with counts.
	if !strings.Contains(out, "Queue/4") {
		t.Errorf("no per-rule counts in %q", out)
	}
}

func TestCoverDetectsDeadAxiom(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dead.spec")
	src := `
spec Dead
  uses Bool
  ops
    c : -> Dead
    f : Dead -> Bool
  vars x : Dead
  axioms
    [live] f(x) = true
    [dead] f(c) = false
end
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runWith(t, "cover", "-lib", "-spec", "Dead", path)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "UNFIRED") || !strings.Contains(errOut, "never fire") {
		t.Errorf("out = %q, stderr = %q", out, errOut)
	}
}

func TestCoverUnknownSpec(t *testing.T) {
	if code, _, _ := runWith(t, "cover", "-lib", "-spec", "Ghost"); code != exitUsage {
		t.Errorf("exit = %d", code)
	}
}
