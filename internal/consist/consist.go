// Package consist checks an algebraic specification for consistency — the
// paper's requirement that no two of the "individual statements of fact"
// contradict one another (§3). Two complementary checks are provided:
//
//   - Check judges critical pairs: wherever one axiom's left-hand side
//     unifies with a (non-variable) subterm of another's, the two ways of
//     rewriting the overlapped term are compared. A pair whose two sides
//     do not rewrite to a common term is reported. The pairs and their
//     judgement come from the critical-pair pass Knuth–Bendix completion
//     runs too (completion.Pairs, Pair.Judge). Joinable critical pairs
//     together with termination imply confluence (Knuth–Bendix), hence
//     unique normal forms; an unjoinable pair is either a genuine
//     contradiction or a benign ambiguity the engine resolves by rule
//     priority — the report distinguishes the fatal case where the two
//     sides reach distinct ground constructor forms (true vs false).
//
//   - CheckGround evaluates every ground boolean observation up to a
//     depth bound under multiple strategies (innermost, outermost) and
//     reports any term whose value differs across strategies, plus any
//     term reducing to both true and false (a direct contradiction).
package consist

import (
	"fmt"
	"strings"

	"algspec/internal/completion"
	"algspec/internal/gen"
	"algspec/internal/rewrite"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// CriticalPair is one overlap between two axioms, as the shared
// critical-pair pass of internal/completion finds and judges it.
type CriticalPair = completion.Pair

// Report is the outcome of the critical-pair analysis.
type Report struct {
	Spec  string
	Pairs []*CriticalPair
	// Unjoinable and Fatal are the subsets of Pairs that failed.
	Unjoinable []*CriticalPair
	Fatal      []*CriticalPair
}

// OK reports whether no fatal contradiction was found.
func (r *Report) OK() bool { return len(r.Fatal) == 0 }

// Confluent reports whether every critical pair was locally joinable
// under the default strategy. That is weaker than its name: joinability
// is judged by normalizing both contractions with the engine's ordinary
// rule priority, so it establishes local joinability of the sampled
// pairs, not confluence. For the real claim — a machine-checked
// confluence + termination certificate — see completion.Certificate
// (internal/completion), which orients the axioms under a reduction
// order and closes the rule set under critical pairs.
func (r *Report) Confluent() bool { return len(r.Unjoinable) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "consistency of %s: %d critical pair(s), %d unjoinable, %d fatal\n",
		r.Spec, len(r.Pairs), len(r.Unjoinable), len(r.Fatal))
	for _, cp := range r.Unjoinable {
		fmt.Fprintf(&b, "  %s\n", cp)
	}
	return b.String()
}

// Check computes and judges all critical pairs among the spec's axioms
// (its own and inherited ones, since an inconsistency may straddle
// layers). The spec's rewrite system is compiled only when there is a
// pair to judge.
func Check(sp *spec.Spec) *Report {
	r := &Report{Spec: sp.Name, Pairs: completion.Pairs(sp.All)}
	if len(r.Pairs) == 0 {
		return r
	}
	sys := rewrite.New(sp)
	for _, cp := range r.Pairs {
		cp.Judge(sp, sys)
		if !cp.Joinable {
			r.Unjoinable = append(r.Unjoinable, cp)
			if cp.Fatal {
				r.Fatal = append(r.Fatal, cp)
			}
		}
	}
	return r
}

// maxTermsPerOp caps the instances the ground check tries per
// observer.
const maxTermsPerOp = 1500

// GroundConfig configures the ground consistency check.
type GroundConfig struct {
	// Depth bounds generated argument terms (default 4).
	Depth int
	// System, when non-nil, supplies an already-compiled rewrite system
	// for the spec; workers fork it (with per-strategy options) instead
	// of recompiling the axioms.
	System *rewrite.System
	// Workers sets the number of evaluation goroutines (<= 0 means
	// GOMAXPROCS). The report is identical for any worker count.
	Workers int
}

// GroundConflict records a ground term with strategy-dependent value.
type GroundConflict struct {
	Term      *term.Term
	Innermost *term.Term
	Outermost *term.Term
}

func (g GroundConflict) String() string {
	return fmt.Sprintf("%s: innermost %s vs outermost %s", g.Term, g.Innermost, g.Outermost)
}

// GroundReport is the outcome of the ground consistency check.
type GroundReport struct {
	Spec      string
	Checked   int
	Conflicts []GroundConflict
	Errors    []error
}

// OK reports whether no conflicting evaluation was found.
func (r *GroundReport) OK() bool { return len(r.Conflicts) == 0 }

func (r *GroundReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ground consistency of %s: %d observations checked, %d conflict(s)\n",
		r.Spec, r.Checked, len(r.Conflicts))
	for _, c := range r.Conflicts {
		fmt.Fprintf(&b, "  CONFLICT %s\n", c)
	}
	return b.String()
}

// CheckGround evaluates ground instances of every observer (operation with
// an observable range: Bool, atom or parameter sorts) under the innermost
// and outermost strategies and reports disagreements. On a confluent,
// terminating system the two strategies agree on every ground term; a
// disagreement pinpoints an inconsistency exercised by actual values.
// Observations are sharded across workers, each holding its own pair of
// forked systems (one per strategy), and outcomes are merged in
// observation order, so the report does not depend on the worker count.
func CheckGround(sp *spec.Spec, cfg GroundConfig) *GroundReport {
	if cfg.Depth == 0 {
		cfg.Depth = 4
	}
	r := &GroundReport{Spec: sp.Name}
	g := gen.New(sp, gen.Config{})
	base := cfg.System
	if base == nil {
		base = rewrite.New(sp)
	}

	// Deterministic observation list.
	var items []*term.Term
	for _, op := range sp.Observers() {
		items = append(items, g.Applications(op, cfg.Depth, maxTermsPerOp)...)
	}
	r.Checked = len(items)

	// One batched normalization per strategy; NormalizeAll forks per
	// worker internally and keeps results index-aligned with items.
	inner := base.Fork(rewrite.WithStrategy(rewrite.Innermost))
	outer := base.Fork(rewrite.WithStrategy(rewrite.Outermost))
	nfsI, errsI := inner.NormalizeAll(items, cfg.Workers)
	nfsO, errsO := outer.NormalizeAll(items, cfg.Workers)

	for i, t := range items {
		var errI, errO error
		if errsI != nil {
			errI = errsI[i]
		}
		if errsO != nil {
			errO = errsO[i]
		}
		if errI != nil {
			r.Errors = append(r.Errors, fmt.Errorf("%s: %w", t, errI))
		}
		if errO != nil {
			r.Errors = append(r.Errors, fmt.Errorf("%s: %w", t, errO))
		}
		if errI != nil || errO != nil {
			continue
		}
		if !nfsI[i].Equal(nfsO[i]) {
			r.Conflicts = append(r.Conflicts, GroundConflict{Term: t, Innermost: nfsI[i], Outermost: nfsO[i]})
		}
	}
	return r
}
