package completion

import (
	"fmt"

	"algspec/internal/rewrite"
	"algspec/internal/spec"
	"algspec/internal/subst"
	"algspec/internal/term"
)

// Pair is one critical pair: an overlap of two rules and the two ways
// of contracting it. Pairs finds it and Judge classifies it; the
// consistency check (consist.Check) and Complete's closure rounds both
// read this one pass.
type Pair struct {
	Outer, Inner *spec.Axiom
	// Overlap is the superposed term: the instance of Outer.LHS whose
	// subterm at Path is an instance of Inner.LHS.
	Overlap *term.Term
	Path    term.Path
	// Left and Right are the two one-step contractions of Overlap, and
	// LeftNF and RightNF their normal forms (nil when normalizing
	// failed, e.g. on fuel exhaustion, with Err set).
	Left, Right     *term.Term
	LeftNF, RightNF *term.Term
	// Joinable reports whether the normal forms coincide. Fatal reports
	// a direct contradiction: they are distinct ground constructor forms
	// (true vs false, or error vs a proper value), which no further rule
	// can reconcile.
	Joinable, Fatal bool
	Err             error
}

// String renders the pair as its overlap, the two normal forms and the
// verdict, with the error when normalizing a contraction failed.
func (cp *Pair) String() string {
	status := "joinable"
	switch {
	case cp.Err != nil:
		status = "NOT joinable: " + cp.Err.Error()
	case cp.Fatal:
		status = "CONTRADICTION"
	case !cp.Joinable:
		status = "NOT joinable"
	}
	return fmt.Sprintf("[%s]/[%s] overlap %s at %v: %s vs %s (%s)",
		cp.Outer.Label, cp.Inner.Label, cp.Overlap, cp.Path, cp.LeftNF, cp.RightNF, status)
}

// Pairs superposes every ordered pair of rules: for each rule (outer)
// and each rule (inner), inner's left-hand side is unified with every
// non-variable, non-conditional subterm of outer's left-hand side, and
// each unifier yields one pair, unjudged. A rule's overlap with itself
// at the root is skipped (it is trivially joinable).
func Pairs(rules []*spec.Axiom) []*Pair {
	// Rename every rule apart once per role: outer variables get
	// suffix #1, inner ones #2.
	type sides struct{ lhs, rhs *term.Term }
	outer := make([]sides, len(rules))
	inner := make([]sides, len(rules))
	for i, r := range rules {
		outer[i] = sides{subst.RenameApart(r.LHS, 1), subst.RenameApart(r.RHS, 1)}
		inner[i] = sides{subst.RenameApart(r.LHS, 2), subst.RenameApart(r.RHS, 2)}
	}
	var out []*Pair
	for i, o := range outer {
		positions := o.lhs.Positions()
		for j, in := range inner {
			for _, p := range positions {
				if i == j && len(p) == 0 {
					continue
				}
				sub := o.lhs.At(p)
				if sub.Kind != term.Op || sub.IsIf() || sub.Sym != in.lhs.Sym {
					continue
				}
				u, ok := subst.Unify(sub, in.lhs)
				if !ok {
					continue
				}
				overlap := u.Apply(o.lhs)
				right := overlap.ReplaceAt(p, u.Apply(in.rhs))
				if right == nil {
					continue
				}
				out = append(out, &Pair{
					Outer:   rules[i],
					Inner:   rules[j],
					Overlap: overlap,
					Path:    append(term.Path(nil), p...),
					Left:    u.Apply(o.rhs),
					Right:   right,
				})
			}
		}
	}
	return out
}

// Judge normalizes the pair's left contraction, then its right one,
// under sys, stopping at the first that fails (Err). It then sets
// Joinable, and Fatal when the two normal forms are distinct ground
// constructor forms of sp. Distinct open terms may just be unreduced
// symbolic residue, which rule priority resolves deterministically, so
// they are not fatal.
func (cp *Pair) Judge(sp *spec.Spec, sys *rewrite.System) {
	if cp.LeftNF, cp.Err = sys.Normalize(cp.Left); cp.Err != nil {
		return
	}
	if cp.RightNF, cp.Err = sys.Normalize(cp.Right); cp.Err != nil {
		return
	}
	cp.Joinable = cp.LeftNF.Equal(cp.RightNF)
	cp.Fatal = !cp.Joinable && cp.LeftNF.IsGround() && cp.RightNF.IsGround() &&
		rewrite.IsConstructorForm(sp, cp.LeftNF) && rewrite.IsConstructorForm(sp, cp.RightNF)
}
