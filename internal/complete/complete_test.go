package complete_test

import (
	"strings"
	"testing"

	"algspec/internal/complete"
	"algspec/internal/core"
	"algspec/internal/spec"
	"algspec/internal/speclib"
)

func TestLibraryIsSufficientlyComplete(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range speclib.Names {
		sp := env.MustGet(name)
		r := complete.Check(sp)
		if !r.OK() {
			t.Errorf("%s: %s", name, r)
		}
	}
}

func TestLibraryIsDynamicallyComplete(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range speclib.Names {
		sp := env.MustGet(name)
		r := complete.CheckDynamic(sp, complete.DynamicConfig{Depth: 3})
		if !r.OK() {
			t.Errorf("%s: %s", name, r)
		}
		if r.Checked == 0 && len(sp.Own) > 0 && hasExtensions(sp) {
			t.Errorf("%s: dynamic check exercised nothing", name)
		}
	}
}

func hasExtensions(sp *spec.Spec) bool {
	for _, opName := range sp.OwnOps {
		op := sp.Sig.MustOp(opName)
		if !op.Native && !sp.IsConstructor(opName) {
			return true
		}
	}
	return false
}

// loadMutated loads the Queue spec with one axiom deleted.
func loadMutated(t *testing.T, dropLabel string) *spec.Spec {
	t.Helper()
	lines := strings.Split(speclib.Queue, "\n")
	var kept []string
	dropped := false
	for _, l := range lines {
		if strings.Contains(l, "["+dropLabel+"]") {
			dropped = true
			continue
		}
		kept = append(kept, l)
	}
	if !dropped {
		t.Fatalf("label %s not found", dropLabel)
	}
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	sps, err := env.Load(strings.Join(kept, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return sps[0]
}

// E3: dropping any single Queue axiom is detected, and the report names
// the missing case.
func TestMutationDetection(t *testing.T) {
	cases := []struct {
		drop        string
		wantMissing string // substring of the reported witness
	}{
		{"1", "isEmpty?(new)"},
		{"2", "isEmpty?(add("},
		{"3", "front(new)"},
		{"4", "front(add("},
		{"5", "remove(new)"},
		{"6", "remove(add("},
	}
	for _, c := range cases {
		sp := loadMutated(t, c.drop)
		r := complete.Check(sp)
		if r.OK() {
			t.Errorf("dropping axiom %s went undetected", c.drop)
			continue
		}
		found := false
		for _, m := range r.Missing {
			if strings.Contains(m.Example.String(), c.wantMissing) {
				found = true
			}
		}
		if !found {
			t.Errorf("dropping %s: report %v does not name %q", c.drop, r.Missing, c.wantMissing)
		}
	}
}

// The boundary-condition scenario from the paper's §3: forgetting
// REMOVE(NEW) is "particularly likely to be overlooked", and the checker
// reports exactly that term.
func TestBoundaryCaseReport(t *testing.T) {
	sp := loadMutated(t, "5")
	r := complete.Check(sp)
	if len(r.Missing) != 1 {
		t.Fatalf("missing = %v", r.Missing)
	}
	if got := r.Missing[0].Example.String(); got != "remove(new)" {
		t.Errorf("witness = %q, want remove(new)", got)
	}
	if r.Missing[0].Op != "remove" {
		t.Errorf("op = %q", r.Missing[0].Op)
	}
	if !strings.Contains(r.String(), "MISSING") {
		t.Errorf("report rendering: %s", r)
	}
}

// Dropping an axiom also fails the dynamic check.
func TestMutationDetectedDynamically(t *testing.T) {
	sp := loadMutated(t, "5")
	r := complete.CheckDynamic(sp, complete.DynamicConfig{Depth: 3})
	if r.OK() {
		t.Fatal("dynamic check missed the dropped axiom")
	}
	// The failing term is a remove term stuck at remove(new).
	found := false
	for _, f := range r.Failures {
		if strings.Contains(f.String(), "remove(new)") {
			found = true
		}
	}
	if !found {
		t.Errorf("failures = %v", r.Failures)
	}
}

// Multi-column case analysis: Nat's ltN patterns cover (m, zero),
// (zero, succ n), (succ m, succ n). Dropping the middle one leaves
// exactly ltN(zero, succ(...)) uncovered.
func TestMultiColumnCoverage(t *testing.T) {
	src := strings.Replace(speclib.Nat, "[lt2]   ltN(zero, succ(n)) = true\n", "", 1)
	if src == speclib.Nat {
		t.Fatal("mutation failed")
	}
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	sps, err := env.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	r := complete.Check(sps[0])
	if r.OK() {
		t.Fatal("missing ltN case undetected")
	}
	if got := r.Missing[0].Example.String(); !strings.HasPrefix(got, "ltN(zero, succ(") {
		t.Errorf("witness = %q", got)
	}
}

// Open sorts: an axiom set that matches a specific atom but provides no
// default is incomplete, and the witness uses a fresh atom.
func TestOpenSortCoverage(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Identifier)
	sps, err := env.Load(`
spec K
  uses Bool, Identifier
  ops
    f : Identifier -> Bool
  axioms
    f('special) = true
end`)
	if err != nil {
		t.Fatal(err)
	}
	r := complete.Check(sps[0])
	if r.OK() {
		t.Fatal("atom-only coverage accepted")
	}
	if !strings.Contains(r.Missing[0].Example.String(), "fresh") {
		t.Errorf("witness = %s", r.Missing[0].Example)
	}

	// Adding a variable default completes it.
	env2 := core.NewEnv()
	env2.MustLoad(speclib.Bool, speclib.Identifier)
	sps2, err := env2.Load(`
spec K2
  uses Bool, Identifier
  ops
    f : Identifier -> Bool
  vars id : Identifier
  axioms
    f('special) = true
    f(id) = false
end`)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := complete.Check(sps2[0]); !r2.OK() {
		t.Errorf("defaulted atom coverage rejected: %s", r2)
	}
}

// Patterns containing non-constructor operations are excluded from the
// analysis with a warning.
func TestNonPatternWarning(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	sps, err := env.Load(`
spec W
  uses Bool
  ops
    c : -> W
    g : W -> W
    f : W -> Bool
  vars x : W
  axioms
    [g1] g(x) = x
    [w1] f(g(c)) = true
    [w2] f(x) = false
end`)
	if err != nil {
		t.Fatal(err)
	}
	r := complete.Check(sps[0])
	found := false
	for _, w := range r.Warnings {
		if strings.Contains(w.Msg, "non-constructor operation g") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %v", r.Warnings)
	}
}

// Non-left-linear patterns are flagged.
func TestNonLeftLinearWarning(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	sps, err := env.Load(`
spec NL
  uses Bool
  ops
    c : -> NL
    p : NL, NL -> Bool
  vars x : NL
  axioms
    p(x, x) = true
end`)
	if err != nil {
		t.Fatal(err)
	}
	r := complete.Check(sps[0])
	found := false
	for _, w := range r.Warnings {
		if strings.Contains(w.Msg, "repeats a variable") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %v", r.Warnings)
	}
}

// The termination heuristic accepts the library (structural descent and
// destructor chains) but flags genuinely suspicious recursion.
func TestTerminationHeuristic(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range speclib.Names {
		r := complete.Check(env.MustGet(name))
		for _, w := range r.Warnings {
			if strings.Contains(w.Msg, "termination") {
				t.Errorf("%s: unexpected termination warning: %s", name, w)
			}
		}
	}
	envB := core.NewEnv()
	envB.MustLoad(speclib.Bool)
	sps, err := envB.Load(`
spec T
  uses Bool
  ops
    c : -> T
    g : T -> T
  vars x : T
  axioms
    g(x) = g(g(x))
end`)
	if err != nil {
		t.Fatal(err)
	}
	r := complete.Check(sps[0])
	found := false
	for _, w := range r.Warnings {
		if strings.Contains(w.Msg, "termination") {
			found = true
		}
	}
	if !found {
		t.Errorf("suspicious recursion not flagged: %v", r.Warnings)
	}
}

func TestReportRendering(t *testing.T) {
	env := speclib.BaseEnv()
	r := complete.Check(env.MustGet("Queue"))
	if !strings.Contains(r.String(), "sufficient-completeness of Queue: OK") {
		t.Errorf("rendering: %q", r.String())
	}
	d := complete.CheckDynamic(env.MustGet("Queue"), complete.DynamicConfig{Depth: 3})
	if !strings.Contains(d.String(), "all reduce to constructor form") {
		t.Errorf("rendering: %q", d.String())
	}
}
