// Package axtest turns an algebraic specification into a property-based
// test suite. The idea goes back to Gaudel & Le Gall: the axioms ARE the
// test oracle. Every equation of the spec must hold for every ground
// instantiation of its variables, so drawing random ground terms with
// internal/gen, instantiating both sides, and normalizing them under the
// rewrite engine yields an executable check with no hand-written expected
// values.
//
// Three drivers are provided:
//
//   - CheckAxioms: the axiom-oracle runner. Random (plus one guaranteed
//     minimal) instantiations per axiom, with greedy shrinking of any
//     counterexample to a locally minimal assignment and a recorded seed
//     for deterministic replay.
//   - CheckEngines (diff.go): the differential driver. One ground corpus
//     normalized under every engine configuration (compiled machine,
//     MatchBind interpreter and memoized interpreter x 1/N workers, plus
//     outermost rows for certified specs), requiring identical normal
//     forms and — where the configuration admits it — identical step
//     counts.
//   - CheckMutations (mutate.go): the mutation smoke mode. Each axiom's
//     RHS is perturbed in turn and the oracle must notice, proving the
//     harness has teeth.
package axtest

import (
	"fmt"
	"sort"
	"strings"

	"algspec/internal/gen"
	"algspec/internal/rewrite"
	"algspec/internal/spec"
	"algspec/internal/subst"
	"algspec/internal/term"
)

// DefaultSeed is the seed used when Config.Seed is zero, chosen to match
// internal/gen's fixed default so bare runs stay reproducible.
const DefaultSeed = 0x6177_7474

// Config tunes an oracle run. The zero value is usable.
type Config struct {
	// N is the number of random instantiations drawn per axiom, on top
	// of the guaranteed minimal instance (0 = 48).
	N int
	// Depth bounds the depth of randomly drawn ground terms (0 = 4).
	Depth int
	// Seed seeds the instance generator (0 = DefaultSeed). A failing
	// report records the effective seed; re-running with it reproduces
	// the same instances and therefore the same failure.
	Seed int64
	// Workers bounds the goroutines used for batch normalization
	// (<= 0 = GOMAXPROCS).
	Workers int
	// MaxShrink caps the number of candidate evaluations spent shrinking
	// each counterexample (0 = 256).
	MaxShrink int
	// MaxFailures caps the failures recorded per run; counting continues
	// past the cap (0 = 8).
	MaxFailures int
	// Gen, when non-nil, supplies the instance generator; otherwise one
	// is built from the spec with Seed and the system's interner.
	Gen *gen.Generator
	// System, when non-nil, is the engine the axioms are checked against
	// (the mutation driver points it at a system compiled from a
	// perturbed spec). It is forked, not mutated. Nil compiles a plain
	// engine from the spec.
	System *rewrite.System
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 48
	}
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.MaxShrink == 0 {
		c.MaxShrink = 256
	}
	if c.MaxFailures == 0 {
		c.MaxFailures = 8
	}
	return c
}

// Failure is one axiom instance whose two sides normalize differently,
// shrunk to a locally minimal assignment.
type Failure struct {
	// Axiom is the violated equation.
	Axiom *spec.Axiom
	// Assignment is the shrunk counterexample binding.
	Assignment map[string]*term.Term
	// LHS and RHS are the differing normal forms under Assignment.
	LHS, RHS *term.Term
	// Original is the assignment as first drawn, before shrinking.
	Original map[string]*term.Term
	// ShrinkSteps counts the accepted shrink replacements.
	ShrinkSteps int
}

// String renders the failure over a few indented lines.
func (f *Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "axiom [%s] %s = %s\n", f.Axiom.Label, f.Axiom.LHS, f.Axiom.RHS)
	fmt.Fprintf(&b, "  counterexample %s\n", formatAssignment(f.Assignment))
	if f.ShrinkSteps > 0 {
		fmt.Fprintf(&b, "  (shrunk in %d step(s) from %s)\n", f.ShrinkSteps, formatAssignment(f.Original))
	}
	fmt.Fprintf(&b, "  lhs normalizes to %s\n", f.LHS)
	fmt.Fprintf(&b, "  rhs normalizes to %s", f.RHS)
	return b.String()
}

// formatAssignment renders a binding deterministically: {n = zero, q = new}.
func formatAssignment(m map[string]*term.Term) string {
	if len(m) == 0 {
		return "{}"
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", n, m[n])
	}
	b.WriteByte('}')
	return b.String()
}

// Report is the outcome of one oracle run over a spec's own axioms.
type Report struct {
	// Spec is the checked specification's name.
	Spec string
	// Seed is the effective generator seed; re-running CheckAxioms with
	// Config.Seed = Seed reproduces the run exactly.
	Seed int64
	// Axioms and Instances count what was checked.
	Axioms    int
	Instances int
	// FailureCount is the total number of failing instances; Failures
	// holds the first Config.MaxFailures of them, shrunk.
	FailureCount int
	Failures     []*Failure
	// Skipped lists axioms that could not be instantiated (a variable's
	// sort has no ground terms), with the reason.
	Skipped []string
	// Errors lists normalization failures (fuel exhaustion) — not axiom
	// violations, but not a passing run either.
	Errors []string
}

// OK reports whether every checked instance passed.
func (r *Report) OK() bool { return r.FailureCount == 0 && len(r.Errors) == 0 }

// String renders the report; failing runs include shrunk counterexamples
// and the seed that replays them.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "axiom oracle of %s: %d axiom(s), %d instance(s), seed %d: ",
		r.Spec, r.Axioms, r.Instances, r.Seed)
	if r.OK() {
		b.WriteString("OK")
	} else {
		fmt.Fprintf(&b, "FAIL (%d failing instance(s), %d error(s))", r.FailureCount, len(r.Errors))
	}
	for _, f := range r.Failures {
		b.WriteString("\n")
		b.WriteString(indent(f.String(), "  "))
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "\n  error: %s", e)
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "\n  skipped: %s", s)
	}
	if !r.OK() {
		fmt.Fprintf(&b, "\n  replay with -seed %d", r.Seed)
	}
	return b.String()
}

func indent(s, pad string) string {
	return pad + strings.ReplaceAll(s, "\n", "\n"+pad)
}

// checker bundles the per-run state shared by the oracle and shrinking.
type checker struct {
	cfg Config
	sp  *spec.Spec
	sys *rewrite.System // batch engine for the instance sweep
	seq *rewrite.System // sequential sibling for shrinking probes
	g   *gen.Generator
}

// CheckAxioms runs the axiom oracle for the spec's own axioms: for each
// axiom, one guaranteed minimal instantiation (every variable bound to the
// smallest ground term of its sort, so boundary cases like the empty queue
// are always exercised) plus Config.N random ones. Both sides of every
// instance are normalized in one deterministic batch; any instance whose
// sides disagree is shrunk to a locally minimal counterexample.
func CheckAxioms(sp *spec.Spec, cfg Config) *Report {
	cfg = cfg.withDefaults()
	c := &checker{cfg: cfg, sp: sp}
	if cfg.System != nil {
		c.sys = cfg.System.Fork()
	} else {
		c.sys = rewrite.New(sp)
	}
	c.seq = c.sys.Fork()
	c.g = cfg.Gen
	if c.g == nil {
		c.g = gen.New(sp, gen.Config{Seed: cfg.Seed, Intern: c.sys.Interner()})
	}
	rep := &Report{Spec: sp.Name, Seed: cfg.Seed}

	// Draw every instance up front, sequentially, so the set depends only
	// on the seed — never on worker scheduling.
	type instance struct {
		ax  *spec.Axiom
		asn map[string]*term.Term
	}
	var insts []instance
	var pairs []*term.Term // lhs, rhs interleaved, batch-normalized below
	for _, ax := range sp.Own {
		vars := ax.LHS.Vars()
		rep.Axioms++
		asns := make([]map[string]*term.Term, 0, cfg.N+1)
		if min, ok := c.g.MinimalAssignment(vars); ok {
			asns = append(asns, min)
		} else {
			rep.Skipped = append(rep.Skipped,
				fmt.Sprintf("axiom [%s]: a variable's sort has no ground terms", ax.Label))
			continue
		}
		for i := 0; i < cfg.N; i++ {
			asn, err := c.g.RandomAssignment(vars, cfg.Depth)
			if err != nil {
				rep.Skipped = append(rep.Skipped,
					fmt.Sprintf("axiom [%s]: %v", ax.Label, err))
				break
			}
			asns = append(asns, asn)
		}
		for _, asn := range asns {
			insts = append(insts, instance{ax, asn})
			l, r := c.instantiate(ax, asn)
			pairs = append(pairs, l, r)
		}
	}
	rep.Instances = len(insts)

	nfs, errs := c.sys.NormalizeAll(pairs, cfg.Workers)
	for i, inst := range insts {
		le, re := errAt(errs, 2*i), errAt(errs, 2*i+1)
		if le != nil || re != nil {
			for _, e := range []error{le, re} {
				if e != nil {
					rep.Errors = append(rep.Errors,
						fmt.Sprintf("axiom [%s] at %s: %v", inst.ax.Label, formatAssignment(inst.asn), e))
				}
			}
			continue
		}
		lnf, rnf := nfs[2*i], nfs[2*i+1]
		if lnf.Equal(rnf) {
			continue
		}
		rep.FailureCount++
		if len(rep.Failures) >= cfg.MaxFailures {
			continue
		}
		shrunk, steps := c.shrink(inst.ax, inst.asn)
		sl, sr, _ := c.normalizeSides(inst.ax, shrunk)
		f := &Failure{
			Axiom:       inst.ax,
			Assignment:  shrunk,
			Original:    inst.asn,
			ShrinkSteps: steps,
			LHS:         sl,
			RHS:         sr,
		}
		if sl == nil || sr == nil { // shrink probe raced into fuel trouble; keep the raw forms
			f.Assignment, f.ShrinkSteps, f.LHS, f.RHS = inst.asn, 0, lnf, rnf
		}
		rep.Failures = append(rep.Failures, f)
	}
	return rep
}

func errAt(errs []error, i int) error {
	if errs == nil {
		return nil
	}
	return errs[i]
}

// instantiate applies the assignment to both sides of the axiom, building
// into the engine's interner so normalization stays on the canonical path.
func (c *checker) instantiate(ax *spec.Axiom, asn map[string]*term.Term) (l, r *term.Term) {
	s := subst.Subst(asn)
	in := c.sys.Interner()
	return s.ApplyIn(in, ax.LHS), s.ApplyIn(in, ax.RHS)
}

// normalizeSides normalizes both instantiated sides sequentially; ok is
// false when either side failed to normalize.
func (c *checker) normalizeSides(ax *spec.Axiom, asn map[string]*term.Term) (l, r *term.Term, ok bool) {
	li, ri := c.instantiate(ax, asn)
	lnf, lerr := c.seq.Normalize(li)
	rnf, rerr := c.seq.Normalize(ri)
	if lerr != nil || rerr != nil {
		return nil, nil, false
	}
	return lnf, rnf, true
}

// stillFails reports whether the assignment is (still) a counterexample.
func (c *checker) stillFails(ax *spec.Axiom, asn map[string]*term.Term) bool {
	l, r, ok := c.normalizeSides(ax, asn)
	return ok && !l.Equal(r)
}

// shrink greedily minimizes a failing assignment: each bound term is
// repeatedly replaced by the smallest candidates that keep the axiom
// failing — the minimal ground term of the sort first, then proper
// subterms of the binding with the same sort, smallest first. The loop
// runs to a fixpoint (or the MaxShrink probe budget), so the result is
// locally minimal: no single replacement can shrink it further.
func (c *checker) shrink(ax *spec.Axiom, asn map[string]*term.Term) (map[string]*term.Term, int) {
	cur := make(map[string]*term.Term, len(asn))
	for k, v := range asn {
		cur[k] = v
	}
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)

	budget := c.cfg.MaxShrink
	steps := 0
	for improved := true; improved; {
		improved = false
		for _, name := range names {
			for _, cand := range c.shrinkCandidates(cur[name]) {
				if budget <= 0 {
					return cur, steps
				}
				budget--
				prev := cur[name]
				cur[name] = cand
				if c.stillFails(ax, cur) {
					steps++
					improved = true
					break // restart candidate list from the new, smaller binding
				}
				cur[name] = prev
			}
		}
	}
	return cur, steps
}

// shrinkCandidates lists strictly smaller replacements for a binding, in
// preference order: the sort's minimal ground term, then proper subterms
// of the binding with the same sort, by ascending size.
func (c *checker) shrinkCandidates(t *term.Term) []*term.Term {
	var out []*term.Term
	if min, ok := c.g.Minimal(t.Sort); ok && min.Size() < t.Size() {
		out = append(out, min)
	}
	var subs []*term.Term
	for _, s := range t.Subterms() {
		if s != t && s.Sort == t.Sort && s.Size() < t.Size() {
			subs = append(subs, s)
		}
	}
	sort.SliceStable(subs, func(i, j int) bool { return subs[i].Size() < subs[j].Size() })
	seen := map[string]bool{}
	if len(out) > 0 {
		seen[out[0].String()] = true
	}
	for _, s := range subs {
		if k := s.String(); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}
