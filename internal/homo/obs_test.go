package homo_test

import (
	"strings"
	"testing"

	"algspec/internal/core"
	"algspec/internal/homo"
	"algspec/internal/sig"
	"algspec/internal/speclib"
)

// A representation can be correct only up to OBSERVATIONAL equivalence:
// the concrete interpretation of keep(a) = a produces an extra wrap
// constructor that no observer can see. With ObsDepth = 0 the structural
// comparison rejects it; with ObsDepth > 0 the verifier recognizes the
// Φ images as behaviourally indistinguishable and records the instances
// as ObservationalOnly. With seesWrap, [o2] and [co2] make obs false on
// every wrapped value, so obs tells wrap(base) from base.
func obsRep(t *testing.T, seesWrap bool) *homo.Verifier {
	t.Helper()
	o2, co2 := "obs(a)", "cobs(c)"
	if seesWrap {
		o2, co2 = "false", "false"
	}
	env := core.NewEnv()
	env.MustLoad(speclib.Bool)
	env.MustLoad(strings.ReplaceAll(`
spec AB
  uses Bool
  ops
    base : -> AB
    wrap : AB -> AB
    keep : AB -> AB
    obs  : AB -> Bool
  vars a : AB
  axioms
    [k]  keep(a) = a
    [o1] obs(base) = true
    [o2] obs(wrap(a)) = O2
end`, "O2", o2))
	env.MustLoad(strings.ReplaceAll(`
spec CC
  uses Bool
  ops
    cbase : -> CC
    cwrap : CC -> CC
    ckeep : CC -> CC
    cobs  : CC -> Bool
  vars c : CC
  axioms
    -- BUG-or-feature: keep' inserts a wrapper.
    [ck]  ckeep(c) = cwrap(c)
    [co1] cobs(cbase) = true
    [co2] cobs(cwrap(c)) = CO2
end`, "CO2", co2))
	v, err := homo.New(homo.Representation{
		Abstract: env.MustGet("AB"),
		Concrete: env.MustGet("CC"),
		AbsSort:  "AB",
		RepSort:  "CC",
		OpMap: map[string]string{
			"base": "cbase", "wrap": "cwrap", "keep": "ckeep", "obs": "cobs",
		},
		PhiRules: [][2]string{
			{"phi(cbase)", "base"},
			{"phi(cwrap(c))", "wrap(phi(c))"},
		},
		PhiVars: map[string]sig.Sort{"c": "CC"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestObservationalEquivalenceRescuesWrapper(t *testing.T) {
	// Structural comparison: axiom [k] fails (wrap(φ(x)) ≠ φ(x)).
	v := obsRep(t, false)
	strict, err := v.VerifyAxiom("k", homo.Config{Depth: 3, MaxInstancesPerAxiom: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Failures) == 0 {
		t.Fatal("structural comparison unexpectedly passed")
	}

	// Observational comparison: every instance passes, and the verifier
	// reports how many needed the weaker notion.
	v2 := obsRep(t, false)
	obs, err := v2.VerifyAxiom("k", homo.Config{Depth: 3, MaxInstancesPerAxiom: 50, ObsDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Failures) != 0 {
		t.Fatalf("observational comparison failed: %v", obs.Failures)
	}
	if obs.ObservationalOnly == 0 {
		t.Error("no instances recorded as observational-only")
	}
	// The genuinely observable axioms hold either way.
	for _, label := range []string{"o1", "o2"} {
		res, err := obsRep(t, false).VerifyAxiom(label, homo.Config{Depth: 3, MaxInstancesPerAxiom: 50})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failures) != 0 {
			t.Errorf("axiom %s failed: %v", label, res.Failures)
		}
	}
}

// When obs tells wrap(base) from base, the wrapper ckeep inserts is
// visible: axiom [k] fails on a = cbase at every observation depth,
// while above cbase the images wrap(wrap(x)) and wrap(x) still look
// alike and pass as observational-only.
func TestObservationalCheckSeesWrapper(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		v := obsRep(t, true)
		res, err := v.VerifyAxiom("k", homo.Config{Depth: 3, MaxInstancesPerAxiom: 50, ObsDepth: d})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failures) != 1 || res.Failures[0].Assignment["a"].String() != "cbase" {
			t.Errorf("ObsDepth %d: failures = %v, want one on a = cbase", d, res.Failures)
		}
		if res.ObservationalOnly != 2 {
			t.Errorf("ObsDepth %d: %d observational-only instance(s), want 2", d, res.ObservationalOnly)
		}
	}
}
