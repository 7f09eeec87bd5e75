package consist_test

import (
	"strings"
	"testing"

	"algspec/internal/consist"
	"algspec/internal/core"
	"algspec/internal/spec"
	"algspec/internal/speclib"
)

func TestLibraryIsConsistent(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range speclib.Names {
		sp := env.MustGet(name)
		r := consist.Check(sp)
		if !r.OK() {
			t.Errorf("%s: %s", name, r)
		}
	}
}

func TestLibraryIsGroundConsistent(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range speclib.Names {
		sp := env.MustGet(name)
		r := consist.CheckGround(sp, consist.GroundConfig{Depth: 3})
		if !r.OK() {
			t.Errorf("%s: %s", name, r)
		}
		if len(r.Errors) > 0 {
			t.Errorf("%s: errors %v", name, r.Errors)
		}
	}
}

// loadQueuePlus loads the Queue spec with extra axioms appended.
func loadQueuePlus(t *testing.T, extra string) *spec.Spec {
	t.Helper()
	src := strings.Replace(speclib.Queue, "end\n", extra+"\nend\n", 1)
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	sps, err := env.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	return sps[0]
}

// E4: an injected axiom that contradicts axiom 2 is caught as a fatal
// critical pair (true vs false).
func TestInjectedContradiction(t *testing.T) {
	sp := loadQueuePlus(t, "    [bad] isEmpty?(add(q, i)) = true")
	r := consist.Check(sp)
	if r.OK() {
		t.Fatalf("contradiction undetected: %s", r)
	}
	found := false
	for _, cp := range r.Fatal {
		pairs := cp.Outer.Label + "/" + cp.Inner.Label
		if strings.Contains(pairs, "2") && strings.Contains(pairs, "bad") {
			found = true
			l, rr := cp.LeftNF.String(), cp.RightNF.String()
			if !(l == "true" && rr == "false" || l == "false" && rr == "true") {
				t.Errorf("normal forms = %s vs %s", l, rr)
			}
		}
	}
	if !found {
		t.Errorf("fatal pairs = %v", r.Fatal)
	}
	if !strings.Contains(r.String(), "CONTRADICTION") {
		t.Errorf("rendering: %s", r)
	}
}

// A contradiction between an error axiom and a value axiom is fatal too.
func TestErrorValueContradiction(t *testing.T) {
	// remove(new) = error by axiom 5; an added remove(new) = new makes
	// the overlapped root contract to error one way and new the other.
	sp2 := loadQueuePlus(t, "    [bad3] remove(new) = new")
	r := consist.Check(sp2)
	if r.OK() {
		t.Fatalf("error/value contradiction undetected: %s", r)
	}
	foundFatal := false
	for _, cp := range r.Fatal {
		if cp.LeftNF.IsErr() != cp.RightNF.IsErr() {
			foundFatal = true
		}
	}
	if !foundFatal {
		t.Errorf("fatal pairs = %v", r.Fatal)
	}
}

// Overlapping-but-joinable axioms are reported as pairs yet not fatal.
func TestBenignOverlap(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	sps, err := env.Load(`
spec J
  uses Bool
  ops
    c : -> J
    g : J -> J
    f : J -> Bool
  vars x : J
  axioms
    [f1] f(g(x)) = f(x)
    [f2] f(x) = true
end`)
	if err != nil {
		t.Fatal(err)
	}
	r := consist.Check(sps[0])
	if len(r.Pairs) == 0 {
		t.Fatal("no critical pairs found for overlapping axioms")
	}
	if !r.OK() {
		t.Errorf("benign overlap reported fatal: %s", r)
	}
	if !r.Confluent() {
		// f(g(x)): f1 -> f(x) -> true; f2 -> true. Joinable.
		t.Errorf("joinable pair reported unjoinable: %s", r)
	}
}

// A genuinely order-dependent (non-confluent but not boolean-fatal)
// system is reported as unjoinable without being fatal when the results
// are open terms.
func TestUnjoinableNonFatal(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	sps, err := env.Load(`
spec U
  uses Bool
  ops
    c  : -> U
    d  : -> U
    e  : -> U
    g  : U -> U
  axioms
    [g1] g(c) = d
    [gc] c = e
end`)
	if err != nil {
		t.Fatal(err)
	}
	// Overlap: g(c) can step to d (g1) or to g(e) (gc inside g's
	// argument). d and g(e) are distinct normal forms; d is a
	// constructor... both ground. This IS fatal (two distinct ground
	// constructor-involving forms) or at least unjoinable.
	r := consist.Check(sps[0])
	if r.Confluent() {
		t.Errorf("non-confluent system reported confluent: %s", r)
	}
}

// Ground checking catches strategy-dependent results.
func TestGroundCheckCounts(t *testing.T) {
	env := speclib.BaseEnv()
	r := consist.CheckGround(env.MustGet("Queue"), consist.GroundConfig{Depth: 4})
	if r.Checked == 0 {
		t.Fatal("ground check exercised nothing")
	}
	if !strings.Contains(r.String(), "0 conflict(s)") {
		t.Errorf("rendering: %s", r)
	}
}

func TestCriticalPairFieldsPopulated(t *testing.T) {
	sp := loadQueuePlus(t, "    [bad] isEmpty?(add(q, i)) = true")
	r := consist.Check(sp)
	if len(r.Pairs) == 0 {
		t.Fatal("no pairs")
	}
	for _, cp := range r.Fatal {
		if cp.Overlap == nil || cp.Left == nil || cp.Right == nil {
			t.Error("pair missing fields")
		}
		if cp.String() == "" {
			t.Error("empty rendering")
		}
	}
}
