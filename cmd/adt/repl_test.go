package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runWithInput(t *testing.T, stdin string, args ...string) (code int, out, errOut string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code = run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestReplEvalAndCommands(t *testing.T) {
	session := strings.Join([]string{
		"front(add(add(new, 'x), 'y))",
		":spec Nat",
		"addN(succ(zero), succ(zero))",
		":spec Ghost",
		":specs",
		":help",
		":wat",
		":trace",
		"pred(succ(zero))",
		":quit",
	}, "\n") + "\n"
	code, out, errOut := runWithInput(t, session, "repl")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	for _, want := range []string{
		"= 'x",
		"= succ(succ(zero))",
		"unknown specification Ghost",
		"Symboltable", // from :specs
		"commands:",
		"unknown command :wat",
		"tracing true",
		"[pred2]",
		"= zero",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("repl output missing %q in:\n%s", want, out)
		}
	}
	// Prompt reflects the active spec after :spec.
	if !strings.Contains(out, "Nat> ") {
		t.Errorf("prompt missing:\n%s", out)
	}
}

func TestReplErrorsKeepSessionAlive(t *testing.T) {
	session := "front(bogus)\nfront(add(new, 'z))\n:quit\n"
	code, out, _ := runWithInput(t, session, "repl")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "error:") || !strings.Contains(out, "= 'z") {
		t.Errorf("out = %q", out)
	}
}

func TestReplEOF(t *testing.T) {
	if code, _, _ := runWithInput(t, "", "repl"); code != 0 {
		t.Errorf("EOF exit = %d", code)
	}
}

func TestReplUnknownInitialSpec(t *testing.T) {
	if code, _, errOut := runWithInput(t, "", "repl", "-spec", "Ghost"); code != exitUsage ||
		!strings.Contains(errOut, "unknown specification") {
		t.Errorf("exit = %d, stderr = %q", code, errOut)
	}
}

func TestFmtPrints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.spec")
	messy := "spec Q uses Bool ops c : ->Q  f:Q->Bool vars x:Q axioms f(x)=true end"
	if err := os.WriteFile(path, []byte(messy), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runWith(t, "fmt", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "spec Q\n  uses Bool") || !strings.Contains(out, "f(x) = true") {
		t.Errorf("out = %q", out)
	}
	// Source file untouched without -w.
	b, _ := os.ReadFile(path)
	if string(b) != messy {
		t.Error("fmt without -w rewrote the file")
	}
}

func TestFmtWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.spec")
	messy := "spec Q uses Bool ops c : ->Q end"
	if err := os.WriteFile(path, []byte(messy), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runWith(t, "fmt", "-w", path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	// The changed file is reported.
	if !strings.Contains(out, path) {
		t.Errorf("out = %q", out)
	}
	b, _ := os.ReadFile(path)
	if !strings.HasPrefix(string(b), "spec Q\n") {
		t.Errorf("file = %q", b)
	}
	// A second -w run is a no-op and reports nothing.
	code, out, _ = runWith(t, "fmt", "-w", path)
	if code != 0 || strings.Contains(out, path) {
		t.Errorf("second run: exit = %d, out = %q", code, out)
	}
}

func TestFmtErrors(t *testing.T) {
	if code, _, _ := runWith(t, "fmt"); code != exitUsage {
		t.Errorf("no files: exit = %d", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.spec")
	if err := os.WriteFile(bad, []byte("spec ???"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runWith(t, "fmt", bad); code != 1 || !strings.Contains(errOut, "bad.spec") {
		t.Errorf("exit = %d, stderr = %q", code, errOut)
	}
}
