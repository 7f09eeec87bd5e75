package completion_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"algspec/internal/completion"
	"algspec/internal/consist"
	"algspec/internal/gen"
	"algspec/internal/spec"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

const criticalPairsGolden = "testdata/critical_pairs.golden"

// cpSrc is certified only because completion derives a rule: [f1] and
// [g1] overlap on f(g(a)), whose contractions f(b) and h(a) do not join.
const cpSrc = `
spec CP
  ops
    a : -> CP
    b : -> CP
    h : CP -> CP
    g : CP -> CP
    f : CP -> CP
  vars
    x : CP
  axioms
    [g1] g(a) = b
    [f1] f(g(x)) = h(x)
    [f2] f(a) = a
end
`

// permutativeSrc states a commutative f: no path order orients it.
const permutativeSrc = `
spec T
  ops
    c : -> T
    f : T, T -> T
  vars
    x, y : T
  axioms
    [p] f(x, y) = f(y, x)
end
`

// queueBadSrc is Queue with an axiom that contradicts its axiom [2].
var queueBadSrc = strings.Replace(speclib.Queue, "end\n", "    [bad] isEmpty?(add(q, i)) = true\nend\n", 1)

// pairsCase is one input of the critical-pair golden: a spec and the
// name its lines carry.
type pairsCase struct {
	id string
	sp *spec.Spec
}

// pairsExcluded is the one mutation the golden leaves out: normalizing
// its critical pairs nests a Go frame per undecided conditional until
// the stack overflows, a fatal error that kills the test binary.
const pairsExcluded = "SymtabImpl +[min] retrieve'(v0, v1) = 'a"

// pairsCorpus returns the golden's inputs: the library and the shipped
// .spec files, the overlapping specs of the completion, consist and
// serve tests, and two mutations of every own axiom of each.
func pairsCorpus(t *testing.T) []pairsCase {
	t.Helper()
	env := speclib.BaseEnv()
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
	var base []pairsCase
	for _, name := range env.Names() {
		base = append(base, pairsCase{name, env.MustGet(name)})
	}
	for _, src := range []string{commutativeSrc, idemSrc, chainSrc, cpSrc, permutativeSrc, queueBadSrc} {
		sp := load(t, src, speclib.Bool)
		id := sp.Name
		if src == queueBadSrc {
			id += "+[bad]"
		}
		base = append(base, pairsCase{id, sp})
	}
	cases := base
	for _, c := range base {
		cases = append(cases, mutants(c)...)
	}
	return cases
}

// mutants returns two mutations of every own axiom of c's spec, each
// appending one axiom: the axiom's head applied to fresh variables
// v0…vn equals the minimal ground term of its range; and, for every
// other own axiom with the same head whose right-hand side's variables
// this axiom's left-hand side binds, this left-hand side equals that
// right-hand side.
func mutants(c pairsCase) []pairsCase {
	sp := c.sp
	g := gen.New(sp, gen.Config{})
	var out []pairsCase
	add := func(ax *spec.Axiom) {
		ax.Owner = sp.Name
		id := fmt.Sprintf("%s +[%s] %s = %s", c.id, ax.Label, ax.LHS, ax.RHS)
		if id == pairsExcluded {
			return
		}
		m := *sp
		m.Own = append(append([]*spec.Axiom(nil), sp.Own...), ax)
		m.All = append(append([]*spec.Axiom(nil), sp.All...), ax)
		out = append(out, pairsCase{id, &m})
	}
	for _, a := range sp.Own {
		if op, ok := sp.Sig.Op(a.Head()); ok {
			if min, ok := g.Minimal(op.Range); ok {
				vars := make([]*term.Term, len(op.Domain))
				for i, d := range op.Domain {
					vars[i] = term.NewVar(fmt.Sprintf("v%d", i), d)
				}
				add(&spec.Axiom{Label: "min", LHS: term.NewOp(op.Name, op.Range, vars...), RHS: min})
			}
		}
		for _, b := range sp.Own {
			if b == a || b.Head() != a.Head() || !bindsVars(a.LHS, b.RHS) {
				continue
			}
			add(&spec.Axiom{Label: "rhs-" + b.Label, LHS: a.LHS, RHS: b.RHS})
		}
	}
	return out
}

// bindsVars reports whether every variable of rhs occurs in lhs.
func bindsVars(lhs, rhs *term.Term) bool {
	for _, v := range rhs.Vars() {
		if !lhs.HasVar(v.Sym) {
			return false
		}
	}
	return true
}

// pairsTally counts what the golden pins.
type pairsTally struct{ pairs, fatal, failed, certs int }

// pairsLines renders c: the consistency report, every critical pair it
// judged, and the certificates of completion under the default budgets
// and under FuzzCompletion's.
func pairsLines(c pairsCase, n *pairsTally) []string {
	var out []string
	r := consist.Check(c.sp)
	n.pairs += len(r.Pairs)
	n.fatal += len(r.Fatal)
	for _, l := range strings.Split(strings.TrimSuffix(r.String(), "\n"), "\n") {
		out = append(out, fmt.Sprintf("%s check: %s", c.id, l))
	}
	for i, cp := range r.Pairs {
		out = append(out, fmt.Sprintf("%s pair %d: [%s]/[%s] overlap %s path %v left %s right %s leftnf %v rightnf %v joinable %t fatal %t err %v",
			c.id, i+1, cp.Outer.Label, cp.Inner.Label, cp.Overlap, cp.Path, cp.Left, cp.Right,
			cp.LeftNF, cp.RightNF, cp.Joinable, cp.Fatal, cp.Err))
		if cp.Err != nil {
			n.failed++
		}
	}
	var first []string
	for i, cfg := range []completion.Config{{}, {MaxRules: 32, MaxRounds: 3, Fuel: 1 << 12}} {
		cert := completion.Complete(c.sp, cfg)
		n.certs++
		js, err := json.Marshal(cert)
		if err != nil {
			js = []byte(err.Error())
		}
		got := []string{cert.String(), "json: " + string(js)}
		for _, rule := range cert.Rules {
			got = append(got, fmt.Sprintf("rule: [%s] %s -> %s flipped %t derived %t",
				rule.Label, rule.LHS, rule.RHS, rule.Flipped, rule.Derived))
		}
		head := fmt.Sprintf("%s complete %+v: ", c.id, cfg)
		if i > 0 && slices.Equal(got, first) {
			out = append(out, head+"as under the default budgets")
			continue
		}
		first = got
		for _, l := range got {
			out = append(out, head+l)
		}
	}
	return out
}

// TestCriticalPairsGolden pins every critical pair the consistency
// check finds and judges, and every certificate completion issues, over
// the corpus pairsCorpus builds. testdata/critical_pairs.golden holds
// one line per report line, pair, certificate and completed rule; run
// with -update to rewrite it.
func TestCriticalPairsGolden(t *testing.T) {
	cases := pairsCorpus(t)
	lines := []string{
		"# Critical pairs and completion certificates; rewrite with",
		"# go test ./internal/completion -run TestCriticalPairsGolden -update",
		"# Left out: " + pairsExcluded + ", whose critical pairs",
		"# overflow the engine's stack, a fatal error that kills the test binary.",
	}
	var n pairsTally
	for _, c := range cases {
		lines = append(lines, pairsLines(c, &n)...)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(criticalPairsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(criticalPairsGolden)
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
	t.Logf("%d specs, %d critical pairs (%d fatal, %d failed to normalize), %d certificates",
		len(cases), n.pairs, n.fatal, n.failed, n.certs)
}
