package axtest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"algspec/internal/conform"
	"algspec/internal/core"
	"algspec/internal/gen"
	"algspec/internal/refimpl"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

var update = flag.Bool("update", false, "rewrite testdata/counterexamples.golden")

const counterexamplesGolden = "testdata/counterexamples.golden"

// goldenSeed is the oracle seed the golden's axiom part is drawn with.
const goldenSeed = 7

// goldenEnv loads the embedded library plus every shipped .spec file
// and returns the names of the specs that state axioms, in load order.
func goldenEnv(t *testing.T) (*core.Env, []string) {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("globbing shipped specs: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.Load(string(src)); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	var names []string
	for _, name := range env.Names() {
		if len(env.MustGet(name).Own) > 0 {
			names = append(names, name)
		}
	}
	return env, names
}

// oracleCounterexamples renders every failure the axiom oracle reports,
// seeded with goldenSeed, against each of CheckMutations' mutant engines
// of the spec: the shrunk assignment, the drawn one and the shrink-step
// count, with the normal forms the shrunk instance reaches.
func oracleCounterexamples(sp *spec.Spec) []string {
	var out []string
	g := gen.New(sp, gen.Config{Seed: goldenSeed})
	for _, ax := range sp.Own {
		mutated, ok := mutateRHS(g, ax)
		if !ok {
			continue
		}
		rep := CheckAxioms(sp, Config{Seed: goldenSeed, System: rewrite.New(cloneWithMutation(sp, ax, mutated))})
		head := fmt.Sprintf("oracle %s mutant [%s]", sp.Name, ax.Label)
		out = append(out, fmt.Sprintf("%s: %d failure(s), %d error(s)", head, rep.FailureCount, len(rep.Errors)))
		for _, f := range rep.Failures {
			out = append(out, fmt.Sprintf("%s: [%s] %s from %s in %d step(s): lhs %s rhs %s",
				head, f.Axiom.Label, formatAssignment(f.Assignment), formatAssignment(f.Original),
				f.ShrinkSteps, f.LHS, f.RHS))
		}
	}
	return out
}

// conformCounterexamples renders the verdict of a conformance session,
// planned as the conform package's mutant test plans it, against every
// single-operation mutant of the spec's reference implementation.
func conformCounterexamples(t *testing.T, env *core.Env, name string) []string {
	t.Helper()
	sp := env.MustGet(name)
	sys, err := env.System(name)
	if err != nil {
		t.Fatal(err)
	}
	f := sys.Fork()
	norm := func(tm *term.Term) (*term.Term, error) { return f.Normalize(sys.Interner().Canon(tm)) }
	var out []string
	for _, m := range refimpl.Mutants(sp) {
		plan, err := conform.NewPlan(env, sp, norm, conform.PlanConfig{ObserveSorts: []sig.Sort{"Nat"}})
		if err != nil {
			t.Fatal(err)
		}
		client := conform.NewModelClient(sp, m.Impl)
		sess := conform.NewSession(plan)
		var served []string
		for cur := plan.Programs; !sess.Done(); {
			obs := make([]conform.Observation, 0, len(cur))
			for _, p := range cur {
				o, err := client.Observe(conform.Msg(p))
				if err != nil {
					t.Fatalf("%s.%s: observing %s: %v", m.Spec, m.Op, p.Text, err)
				}
				o.ID = p.ID
				obs = append(obs, o)
			}
			_, next, err := sess.Observe(obs, norm)
			if err != nil {
				t.Fatal(err)
			}
			if len(next) > 0 {
				texts := make([]string, len(next))
				for i, p := range next {
					texts[i] = p.Text
				}
				served = append(served, strings.Join(texts, "; "))
			}
			cur = next
		}
		v := sess.Verdict()
		line := fmt.Sprintf("conform %s.%s: %d checked, %d failure(s), %d shrink step(s)",
			m.Spec, m.Op, v.Checked, v.FailureCount, v.ShrinkSteps)
		if ce := v.Counterexample; ce != nil {
			line += fmt.Sprintf(": %s got %s want %s", ce.Program, ce.Got, ce.Want)
		}
		out = append(out, line)
		for i, round := range served {
			out = append(out, fmt.Sprintf("conform %s.%s: shrink round %d serves %s", m.Spec, m.Op, i+2, round))
		}
	}
	return out
}

// TestCounterexamplesGolden pins the shrunk counterexamples of both
// shrinkers: the conformance session's against every reference-
// implementation mutant, and the axiom oracle's against every mutant
// engine of every spec. testdata/counterexamples.golden holds one line
// per verdict or failure; run with -update to rewrite it.
func TestCounterexamplesGolden(t *testing.T) {
	env, names := goldenEnv(t)
	var lines []string
	refs := make([]string, 0, len(refimpl.Builders()))
	for name := range refimpl.Builders() {
		refs = append(refs, name)
	}
	sort.Strings(refs)
	for _, name := range refs {
		lines = append(lines, conformCounterexamples(t, env, name)...)
	}
	for _, name := range names {
		lines = append(lines, oracleCounterexamples(env.MustGet(name))...)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(counterexamplesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(counterexamplesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(counterexamplesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Errorf("%d lines, golden has %d", len(lines), len(want))
	}
	bad := 0
	for i := 0; i < len(want) && i < len(lines); i++ {
		if want[i] != lines[i] {
			t.Errorf("line %d changed:\n  want %s\n  got  %s", i+1, want[i], lines[i])
			if bad++; bad > 20 {
				t.Fatal("too many differences")
			}
		}
	}
	t.Logf("%d counterexample lines pinned", len(want))
}
