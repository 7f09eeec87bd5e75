// Package completion implements a Knuth–Bendix-style completion pass
// over a specification's axioms, producing a machine-checkable
// confluence certificate. The paper's §5 claim — that a specification
// and any correct implementation of it are interchangeable — rests on
// normal forms being order-independent; consist.Check only samples that
// property (local joinability of critical pairs under the default
// strategy), while a completion certificate makes it a theorem: the
// axioms are oriented under a lexicographic path order (a reduction
// order, so the oriented system terminates), every critical pair is
// joined by normalization, and unjoinable pairs are oriented and added
// as new rules until the set is closed. By Newman's lemma the certified
// system is confluent, hence has unique normal forms as a rewrite
// system; the engine's strict error, which it does not cover, can still
// split the innermost and outermost strategies (DESIGN §16). So a
// certificate is evidence about the axioms, which `adt confluence`,
// `/v1/specs` and axtest's outermost engines use.
//
// The pass refuses rather than loops: an equation no orientation of
// which fits the path order (commutativity is the canonical case)
// refutes the spec with the offending pair named, and explicit rule,
// round and step budgets bound the closure search, so completion always
// terminates with one of three verdicts.
package completion

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"algspec/internal/rewrite"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// Verdict is a certificate's outcome.
type Verdict string

const (
	// Certified: the oriented rule set terminates (every rule decreases
	// under the derived path order) and every critical pair joins — the
	// system is confluent and normal forms are strategy-independent.
	Certified Verdict = "certified"
	// Refuted: an equation or critical pair that no reduction ordering
	// of this shape can orient, or a pair whose two sides normalize to
	// distinct ground constructor forms (a genuine contradiction).
	Refuted Verdict = "refuted"
	// Budget: the closure search exhausted its rule, round or step
	// budget before reaching a fixpoint — no claim either way.
	Budget Verdict = "budget"
)

// Config bounds the completion search. The zero value selects the
// documented defaults.
type Config struct {
	// MaxRules caps the rule set, original axioms included (default 128).
	MaxRules int
	// MaxRounds caps closure iterations (default 8). The library needs
	// one; a spec still adding rules after eight rounds is diverging.
	MaxRounds int
	// Fuel is the reduction budget of each normalization of a
	// critical-pair contraction (default 1<<18): the engine's fuel is per
	// Normalize call, not shared by a round.
	Fuel int
}

func (c Config) withDefaults() Config {
	if c.MaxRules <= 0 {
		c.MaxRules = 128
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 8
	}
	if c.Fuel <= 0 {
		c.Fuel = 1 << 18
	}
	return c
}

// Rule is one oriented rewrite rule of the completed system.
type Rule struct {
	Label string
	LHS   *term.Term
	RHS   *term.Term
	// Flipped marks an axiom oriented right-to-left.
	Flipped bool
	// Derived marks a rule added from an unjoined critical pair.
	Derived bool
}

// Orientation is one replayable entry of the certificate's trace: the
// rule as oriented, in the order the pass adopted it. Re-running the
// pass on the same spec reproduces the trace exactly.
type Orientation struct {
	Label   string `json:"label"`
	LHS     string `json:"lhs"`
	RHS     string `json:"rhs"`
	Flipped bool   `json:"flipped,omitempty"`
	Derived bool   `json:"derived,omitempty"`
	// Round is 0 for axiom orientations, n for rules added in closure
	// round n.
	Round int `json:"round"`
}

// Offender names the pair that blocked certification, with a minimal
// witness term.
type Offender struct {
	// Outer and Inner are the labels of the two rules involved (equal
	// when a single axiom failed to orient).
	Outer string `json:"outer"`
	Inner string `json:"inner"`
	// Reason is "un-orientable axiom", "un-orientable critical pair",
	// "contradiction" or "budget".
	Reason string `json:"reason"`
	// Left and Right are the two sides that could not be reconciled
	// (for critical pairs, their normal forms).
	Left  string `json:"left"`
	Right string `json:"right"`
	// Witness is a minimal term exhibiting the failure: the smallest
	// overlap whose contractions diverge, or the smaller side of an
	// un-orientable equation.
	Witness string `json:"witness"`
}

func (o *Offender) String() string {
	if o.Outer == o.Inner {
		return fmt.Sprintf("%s [%s]: %s = %s; witness %s", o.Reason, o.Outer, o.Left, o.Right, o.Witness)
	}
	return fmt.Sprintf("%s [%s]/[%s]: %s vs %s; witness %s", o.Reason, o.Outer, o.Inner, o.Left, o.Right, o.Witness)
}

// Certificate is the outcome of completing one specification.
type Certificate struct {
	Spec    string  `json:"spec"`
	Verdict Verdict `json:"verdict"`
	// Rules is the completed, oriented rule set (nil unless certified).
	Rules []*Rule `json:"-"`
	// Precedence is the derived operator precedence ("sym=level",
	// highest first) the orientation trace replays under.
	Precedence []string `json:"precedence,omitempty"`
	// Trace is the replayable orientation trace: every rule adopted, in
	// adoption order.
	Trace []Orientation `json:"trace,omitempty"`
	// Pairs counts the critical pairs examined, Added the rules the
	// closure added, Rounds the closure iterations run.
	Pairs  int `json:"critical_pairs"`
	Added  int `json:"rules_added"`
	Rounds int `json:"rounds"`
	// Offender names the blocking pair for refuted and budget verdicts.
	Offender *Offender `json:"offender,omitempty"`

	// ownRules is CertifiesAxioms, decided once by Complete.
	ownRules bool
}

// CertifiesAxioms reports whether the certificate proves the rules the
// rewrite engine runs — the spec's own axioms, as stated — confluent
// and terminating: the verdict is certified, and completion neither
// derived a rule nor flipped an axiom. When it had to do either, the
// certified system is not the one the engine runs, and the engine's
// strategies may disagree. Even when it holds, the engine's strict
// error can split the strategies (DESIGN §16). The confluent flag of
// /v1/specs and adt test's outermost engines ask this, not Certified.
func (c *Certificate) CertifiesAxioms() bool { return c.ownRules }

// String renders the one-line human report `adt confluence` prints.
func (c *Certificate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", c.Spec, c.Verdict)
	switch c.Verdict {
	case Certified:
		fmt.Fprintf(&b, " (%d rule(s), %d critical pair(s), %d added, %d round(s))",
			len(c.Rules), c.Pairs, c.Added, c.Rounds)
	default:
		if c.Offender != nil {
			fmt.Fprintf(&b, " — %s", c.Offender)
		}
	}
	return b.String()
}

// Complete runs the Knuth–Bendix-style completion pass on the spec's
// axioms (own and inherited — a certificate must cover the whole rule
// set the engine runs) and returns its certificate. The pass is
// deterministic: same spec, same config, same certificate.
func Complete(sp *spec.Spec, cfg Config) *Certificate {
	cfg = cfg.withDefaults()
	cert := &Certificate{Spec: sp.Name, Verdict: Certified}
	ord := newOrder(sp)
	cert.Precedence = ord.String()

	// Phase 1: orient every axiom under the path order.
	var rules []*Rule
	for _, a := range sp.All {
		r, off := orient(ord, a.Label, a.LHS, a.RHS, false)
		if off != nil {
			cert.Verdict = Refuted
			cert.Offender = off
			return cert
		}
		rules = append(rules, r)
		cert.Trace = append(cert.Trace, Orientation{
			Label: r.Label, LHS: r.LHS.String(), RHS: r.RHS.String(), Flipped: r.Flipped,
		})
	}

	// Phase 2: close under critical pairs. Each round normalizes every
	// pair's two contractions against the current rules; unjoined pairs
	// are oriented and added, and the round repeats until no pair is
	// left (certified), a pair refuses (refuted), or a budget trips.
	derived := 0
	for round := 1; ; round++ {
		if round > cfg.MaxRounds {
			cert.Verdict = Budget
			cert.Offender = &Offender{
				Reason: "budget", Outer: "-", Inner: "-",
				Witness: fmt.Sprintf("round budget (%d) exhausted", cfg.MaxRounds),
			}
			return cert
		}
		cert.Rounds = round
		rs := specWith(sp, rules)
		pairs := Pairs(rs.All)
		var open []*Pair
		if len(pairs) > 0 {
			sys := rewrite.New(rs, rewrite.WithMaxSteps(cfg.Fuel))
			for _, cp := range pairs {
				cp.Judge(sp, sys)
				if cp.Err != nil {
					cert.Verdict = Budget
					cert.Offender = &Offender{
						Reason: "budget", Outer: cp.Outer.Label, Inner: cp.Inner.Label,
						Left: cp.Left.String(), Right: cp.Right.String(),
						Witness: cp.Overlap.String(),
					}
					return cert
				}
				if !cp.Joinable {
					open = append(open, cp)
				}
			}
		}
		cert.Pairs = len(pairs)
		if len(open) == 0 {
			cert.Added = derived
			cert.Rules = rules
			cert.ownRules = !slices.ContainsFunc(rules, func(r *Rule) bool { return r.Derived || r.Flipped })
			return cert
		}

		// Smallest witness first: if anything refuses this round, the
		// offender reported is minimal (by overlap size, then the
		// canonical term order).
		sort.SliceStable(open, func(a, b int) bool {
			if sa, sb := open[a].Overlap.Size(), open[b].Overlap.Size(); sa != sb {
				return sa < sb
			}
			return term.Compare(open[a].Overlap, open[b].Overlap) < 0
		})
		for _, d := range open {
			// Two distinct ground constructor forms cannot be
			// reconciled by more rules: the axioms themselves disagree.
			if d.Fatal {
				cert.Verdict = Refuted
				cert.Offender = &Offender{
					Reason: "contradiction", Outer: d.Outer.Label, Inner: d.Inner.Label,
					Left: d.LeftNF.String(), Right: d.RightNF.String(),
					Witness: d.Overlap.String(),
				}
				return cert
			}
			derived++
			label := fmt.Sprintf("cp%d", derived)
			r, off := orient(ord, label, d.LeftNF, d.RightNF, true)
			if off != nil {
				off.Outer, off.Inner = d.Outer.Label, d.Inner.Label
				off.Reason = "un-orientable critical pair"
				off.Witness = d.Overlap.String()
				cert.Verdict = Refuted
				cert.Offender = off
				return cert
			}
			if dup(rules, r) {
				continue
			}
			rules = append(rules, r)
			cert.Trace = append(cert.Trace, Orientation{
				Label: r.Label, LHS: r.LHS.String(), RHS: r.RHS.String(),
				Flipped: r.Flipped, Derived: true, Round: round,
			})
			if len(rules) > cfg.MaxRules {
				cert.Verdict = Budget
				cert.Offender = &Offender{
					Reason: "budget", Outer: d.Outer.Label, Inner: d.Inner.Label,
					Left: d.LeftNF.String(), Right: d.RightNF.String(),
					Witness: fmt.Sprintf("rule budget (%d) exhausted at %s", cfg.MaxRules, d.Overlap),
				}
				return cert
			}
		}
	}
}

// orient turns the equation l = r into a rule decreasing under the
// order, flipping it if only the reverse fits. A usable rule must also
// be executable by the engine: its left-hand side is a non-conditional
// operation application (the engine dispatches rules by head symbol and
// gives `if` and natives built-in meaning). Returns the offender when
// neither orientation works.
func orient(ord *order, label string, l, r *term.Term, derived bool) (*Rule, *Offender) {
	usableLHS := func(t *term.Term) bool {
		return t.Kind == term.Op && !t.IsIf() && ord.symLevel(t) >= 2
	}
	if usableLHS(l) && ord.Greater(l, r) {
		return &Rule{Label: label, LHS: l, RHS: r, Derived: derived}, nil
	}
	if usableLHS(r) && ord.Greater(r, l) {
		return &Rule{Label: label, LHS: r, RHS: l, Flipped: true, Derived: derived}, nil
	}
	witness := l
	if r.Size() < l.Size() || (r.Size() == l.Size() && term.Compare(r, l) < 0) {
		witness = r
	}
	return nil, &Offender{
		Reason: "un-orientable axiom", Outer: label, Inner: label,
		Left: l.String(), Right: r.String(), Witness: witness.String(),
	}
}

// dup reports whether an identical rule (either orientation) is already
// present.
func dup(rules []*Rule, r *Rule) bool {
	for _, x := range rules {
		if x.LHS.Equal(r.LHS) && x.RHS.Equal(r.RHS) {
			return true
		}
	}
	return false
}

// specWith is a shallow copy of sp whose axiom set is the given rules;
// rewrite.New reads exactly sp.Sig (for natives) and sp.All (for
// rules), so the copy compiles like a real spec.
func specWith(sp *spec.Spec, rules []*Rule) *spec.Spec {
	cp := *sp
	axs := make([]*spec.Axiom, len(rules))
	for i, r := range rules {
		axs[i] = &spec.Axiom{Label: r.Label, Owner: sp.Name, LHS: r.LHS, RHS: r.RHS}
	}
	cp.All = axs
	return &cp
}
