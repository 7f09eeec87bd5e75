package completion_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algspec/internal/completion"
	"algspec/internal/core"
	"algspec/internal/corpus"
	"algspec/internal/rewrite"
	"algspec/internal/spec"
	"algspec/internal/speclib"
)

var update = flag.Bool("update", false, "rewrite golden files")

func load(t *testing.T, src string, deps ...string) *spec.Spec {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(deps...)
	sps, err := env.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	return sps[len(sps)-1]
}

// TestLibraryCertificates runs completion over every shipped spec and
// pins the verdicts in testdata/certificates.txt (regenerate with
// -update). The library is written in constructor discipline, so most
// specs certify; the two refutations are genuinely un-orientable
// (BoundedQueue's isFullQ?/sizeq equation and SymtabImpl's retrieve'
// recursion through pop(stk)).
func TestLibraryCertificates(t *testing.T) {
	env := speclib.BaseEnv()
	var lines []string
	certified := 0
	for _, name := range speclib.Names {
		c := completion.Complete(env.MustGet(name), completion.Config{})
		if c.Verdict == completion.Certified {
			certified++
			if len(c.Rules) != len(env.MustGet(name).All)+c.Added {
				t.Errorf("%s: %d rules from %d axioms + %d added", name, len(c.Rules), len(env.MustGet(name).All), c.Added)
			}
		} else if c.Offender == nil {
			t.Errorf("%s: verdict %s without an offender", name, c.Verdict)
		}
		lines = append(lines, c.String())
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "certificates.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("certificates drifted from golden file (regenerate with -update):\ngot:\n%swant:\n%s", got, want)
	}

	// The acceptance bar: a majority of the library carries a real
	// confluence + termination certificate.
	if certified < 10 {
		t.Errorf("only %d/%d specs certified; want at least 10", certified, len(speclib.Names))
	}
}

// TestGoldenCorpusThroughCompletedRules evaluates the full golden corpus
// through the *completed* rule set of every certified spec and demands
// byte-identical normal forms versus the ordinary interpreter — the
// certificate's rule set is a drop-in replacement for the axioms.
func TestGoldenCorpusThroughCompletedRules(t *testing.T) {
	env := speclib.BaseEnv()
	checked := 0
	for _, name := range corpus.BatterySpecs() {
		sp := env.MustGet(name)
		c := completion.Complete(sp, completion.Config{})
		if c.Verdict != completion.Certified {
			continue
		}
		sys := rewrite.New(c.CompletedSpec(sp))
		for _, src := range corpus.Battery(name) {
			tm, err := env.ParseTerm(name, src)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", name, src, err)
			}
			want, err := env.EvalTerm(name, tm)
			if err != nil {
				t.Fatalf("%s: interpreter on %q: %v", name, src, err)
			}
			got, err := sys.Normalize(tm)
			if err != nil {
				t.Fatalf("%s: completed rules on %q: %v", name, src, err)
			}
			if got.String() != want.String() {
				t.Errorf("%s: %q: completed rules gave %s, interpreter gave %s", name, src, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no certified spec had a corpus battery; the test checked nothing")
	}
	t.Logf("%d corpus terms byte-identical through completed rule sets", checked)
}

const commutativeSrc = `
spec CommNat
  uses Bool

  ops
    z    : -> CommNat
    s    : CommNat -> CommNat
    addC : CommNat, CommNat -> CommNat

  vars
    m, n : CommNat

  axioms
    [a1] addC(z, n) = n
    [a2] addC(s(m), n) = s(addC(m, n))
    [c]  addC(m, n) = addC(n, m)
end
`

// TestCommutativityRefuted: no reduction order orients a permutative
// equation, so completion must refuse it immediately — named, with a
// witness — rather than loop.
func TestCommutativityRefuted(t *testing.T) {
	sp := load(t, commutativeSrc, speclib.Bool)
	c := completion.Complete(sp, completion.Config{})
	if c.Verdict != completion.Refuted {
		t.Fatalf("verdict %s, want refuted: %s", c.Verdict, c)
	}
	if c.Offender == nil || c.Offender.Outer != "c" || c.Offender.Reason != "un-orientable axiom" {
		t.Fatalf("offender %+v, want un-orientable axiom [c]", c.Offender)
	}
	if c.Rounds != 0 {
		t.Errorf("refutation took %d closure rounds; orientation must fail before any", c.Rounds)
	}
}

// TestSwapRefuted: two operations that rewrite to each other are
// un-orientable even though each side is headed by a defined op — the
// quasi-precedence puts mutually recursive definitions in one
// equivalence class, and the lexicographic case finds equal arguments.
func TestSwapRefuted(t *testing.T) {
	sp := load(t, `
spec Swap
  ops
    c : -> Swap
    f : Swap -> Swap
    g : Swap -> Swap
  vars
    x : Swap
  axioms
    [s1] f(x) = g(x)
    [s2] g(x) = f(x)
end
`)
	c := completion.Complete(sp, completion.Config{})
	if c.Verdict != completion.Refuted {
		t.Fatalf("verdict %s, want refuted: %s", c.Verdict, c)
	}
	if c.Offender == nil || c.Offender.Reason != "un-orientable axiom" {
		t.Fatalf("offender %+v, want un-orientable axiom", c.Offender)
	}
}

// TestInjectedContradictionRefuted reuses the E4 fixture: Queue with a
// contradictory axiom appended. The [bad]/[2] overlap normalizes to the
// distinct ground constructor forms true and false, which no amount of
// added rules can reconcile — completion must name exactly that pair.
func TestInjectedContradictionRefuted(t *testing.T) {
	sp := load(t, queueBadSrc, speclib.Bool, speclib.Nat, speclib.Identifier, speclib.Attrs, speclib.Elem)
	c := completion.Complete(sp, completion.Config{})
	if c.Verdict != completion.Refuted {
		t.Fatalf("verdict %s, want refuted: %s", c.Verdict, c)
	}
	o := c.Offender
	if o == nil || o.Reason != "contradiction" {
		t.Fatalf("offender %+v, want a contradiction", o)
	}
	if o.Outer != "bad" && o.Inner != "bad" {
		t.Errorf("offending pair [%s]/[%s] does not name the injected axiom", o.Outer, o.Inner)
	}
	nfs := map[string]bool{o.Left: true, o.Right: true}
	if !nfs["true"] || !nfs["false"] {
		t.Errorf("contradiction sides %q vs %q, want true vs false", o.Left, o.Right)
	}
	if o.Witness == "" {
		t.Error("contradiction reported without a witness term")
	}
}

const idemSrc = `
spec Idem
  ops
    c : -> Idem
    f : Idem -> Idem
  vars
    x : Idem
  axioms
    [i] f(f(x)) = f(x)
end
`

// TestIdempotenceJoins: f(f(x)) = f(x) self-overlaps, and the resulting
// critical pair joins — a certificate with a nonzero pair count and no
// added rules.
func TestIdempotenceJoins(t *testing.T) {
	sp := load(t, idemSrc)
	c := completion.Complete(sp, completion.Config{})
	if c.Verdict != completion.Certified {
		t.Fatalf("verdict %s, want certified: %s", c.Verdict, c)
	}
	if c.Pairs == 0 {
		t.Error("idempotence has a self-overlap; expected at least one critical pair")
	}
	if c.Added != 0 {
		t.Errorf("%d rules added; the idempotence pair joins without new rules", c.Added)
	}
}

const chainSrc = `
spec Chain
  ops
    a : -> Chain
    b : -> Chain
    h : Chain -> Chain
    k : Chain -> Chain
    m : Chain -> Chain
  vars
    x : Chain
  axioms
    [1] h(a) = b
    [2] h(x) = k(x)
    [3] k(x) = m(x)
    [4] m(a) = b
end
`

// TestChainJoins: the [1]/[2] root overlap contracts to k(a) vs b,
// which only join after genuinely rewriting k(a) -> m(a) -> b.
func TestChainJoins(t *testing.T) {
	sp := load(t, chainSrc)
	c := completion.Complete(sp, completion.Config{})
	if c.Verdict != completion.Certified {
		t.Fatalf("verdict %s, want certified: %s", c.Verdict, c)
	}
	if c.Pairs == 0 {
		t.Error("the h(a)/h(x) overlap should yield at least one critical pair")
	}
}

// TestFuelBudget: with a starvation fuel budget, the joinability check
// cannot finish and the verdict is budget — never a spin.
func TestFuelBudget(t *testing.T) {
	sp := load(t, chainSrc)
	c := completion.Complete(sp, completion.Config{Fuel: 1})
	if c.Verdict != completion.Budget {
		t.Fatalf("verdict %s, want budget: %s", c.Verdict, c)
	}
	if c.Offender == nil || c.Offender.Reason != "budget" {
		t.Fatalf("offender %+v, want a budget offender", c.Offender)
	}
}

// TestDeterminism: completing the same spec twice yields structurally
// identical certificates — orientation trace, precedence, offender and
// all. This is the replayability guarantee the registry cache and the
// CI drift check lean on.
func TestDeterminism(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range []string{"Queue", "BoundedQueue", "Set", "SymtabImpl", "BST"} {
		a, err := json.Marshal(completion.Complete(env.MustGet(name), completion.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(completion.Complete(env.MustGet(name), completion.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: certificates differ across runs:\n%s\n%s", name, a, b)
		}
	}
}

// TestTraceReplays: the certificate's orientation trace matches the
// rule set one-to-one, in adoption order.
func TestTraceReplays(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	c := completion.Complete(sp, completion.Config{})
	if c.Verdict != completion.Certified {
		t.Fatalf("Queue should certify: %s", c)
	}
	if len(c.Trace) != len(c.Rules) {
		t.Fatalf("trace has %d entries for %d rules", len(c.Trace), len(c.Rules))
	}
	for i, r := range c.Rules {
		o := c.Trace[i]
		if o.Label != r.Label || o.LHS != r.LHS.String() || o.RHS != r.RHS.String() ||
			o.Flipped != r.Flipped || o.Derived != r.Derived {
			t.Errorf("trace[%d] %+v does not replay rule %s: %s = %s", i, o, r.Label, r.LHS, r.RHS)
		}
	}
	if len(c.Precedence) == 0 {
		t.Error("certificate carries no precedence table")
	}
}

// TestCertifiedSpecsAgreeAcrossStrategies is the semantic content of a
// certificate, spot-checked: on a certified spec, innermost and
// outermost normalization agree on every corpus term.
func TestCertifiedSpecsAgreeAcrossStrategies(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range []string{"Queue", "Stack", "Set"} {
		sp := env.MustGet(name)
		if completion.Complete(sp, completion.Config{}).Verdict != completion.Certified {
			t.Fatalf("%s should certify", name)
		}
		in := rewrite.New(sp, rewrite.WithStrategy(rewrite.Innermost))
		out := rewrite.New(sp, rewrite.WithStrategy(rewrite.Outermost))
		for _, src := range corpus.Battery(name) {
			tm, err := env.ParseTerm(name, src)
			if err != nil {
				t.Fatal(err)
			}
			a, err := in.Normalize(tm)
			if err != nil {
				t.Fatal(err)
			}
			b, err := out.Normalize(tm)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) {
				t.Errorf("%s: %q: innermost %s vs outermost %s on a certified spec", name, src, a, b)
			}
		}
	}
}

func ExampleComplete() {
	env := speclib.BaseEnv()
	c := completion.Complete(env.MustGet("Queue"), completion.Config{})
	fmt.Println(c)
	c = completion.Complete(env.MustGet("BoundedQueue"), completion.Config{})
	fmt.Println(c.Verdict)
	// Output:
	// Queue: certified (12 rule(s), 0 critical pair(s), 0 added, 1 round(s))
	// refuted
}
