// Package induct proves equations over an algebraic specification by
// structural induction on constructors — the "generator induction" of
// Wegbreit and Spitzen that the paper's §4 proof procedure rests on
// ("all that need be shown is that INIT' establishes the invariants and
// that ... all invariants on those objects hold upon completion"), and
// the §5 programme of using algebraic specifications as "a set of
// powerful rules of inference" for proofs of program properties.
//
// To prove ∀v. L = R by induction on v (a variable of an inductive
// sort), the prover generates one case per constructor c of v's sort:
// the goal L[v := c(x₁..xₙ)] = R[v := c(x₁..xₙ)] with fresh variables
// xᵢ, under induction hypotheses L[v := xᵢ] = R[v := xᵢ] for each xᵢ of
// the induction sort. Each case is discharged by rewriting both sides to
// normal form using the specification's axioms, previously proved
// lemmas, and the hypotheses, and comparing syntactically. Rewriting
// open terms is sound here because the axioms themselves are universally
// quantified equations.
//
// Proved equations can be learned (Prover.Learn is called automatically
// by Prove on success) and then participate, oriented left to right, in
// later proofs — the lemma chaining that makes e.g.
// reverseL(reverseL(l)) = l provable from its distribution lemma.
//
// Caveat: lemmas are used as oriented rewrite rules, so a permutative
// lemma (addN(m,n) = addN(n,m)) makes the lemma set non-terminating once
// learned. The engine's fuel bound contains the damage — a later proof
// that trips over such a lemma fails cleanly rather than hanging — but
// for best results prove permutative facts last, or use a fresh Prover
// per theorem and Learn only the structural lemmas a proof needs.
package induct

import (
	"fmt"
	"slices"
	"strings"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/subst"
	"algspec/internal/term"
)

// Equation is a universally quantified equation over the free variables
// occurring in its sides.
type Equation struct {
	LHS *term.Term
	RHS *term.Term
}

func (e Equation) String() string { return fmt.Sprintf("%s = %s", e.LHS, e.RHS) }

// Vars returns the distinct free variables of the equation,
// left-to-right.
type caseStatus int

const (
	caseProved caseStatus = iota
	caseStuck
	caseError
)

// Case is the outcome of one constructor case of an induction.
type Case struct {
	Constructor string
	// Goal is the instantiated equation for this case.
	Goal Equation
	// Hypotheses are the induction hypotheses available.
	Hypotheses []Equation
	// LeftNF and RightNF are the normal forms reached (nil on engine
	// error).
	LeftNF  *term.Term
	RightNF *term.Term
	status  caseStatus
	Err     error
}

// Proved reports whether the case was discharged.
func (c *Case) Proved() bool { return c.status == caseProved }

func (c *Case) String() string {
	switch c.status {
	case caseProved:
		return fmt.Sprintf("case %s: proved (both sides normalize to %s)", c.Constructor, c.LeftNF)
	case caseError:
		return fmt.Sprintf("case %s: engine error: %v", c.Constructor, c.Err)
	default:
		return fmt.Sprintf("case %s: STUCK at %s vs %s", c.Constructor, c.LeftNF, c.RightNF)
	}
}

// Proof is the outcome of one induction.
type Proof struct {
	Equation  Equation
	InductVar string
	Cases     []*Case
}

// Proved reports whether every case was discharged.
func (p *Proof) Proved() bool {
	for _, c := range p.Cases {
		if !c.Proved() {
			return false
		}
	}
	return len(p.Cases) > 0
}

func (p *Proof) String() string {
	var b strings.Builder
	status := "PROVED"
	if !p.Proved() {
		status = "NOT PROVED"
	}
	fmt.Fprintf(&b, "%s   [%s, by induction on %s]\n", p.Equation, status, p.InductVar)
	for _, c := range p.Cases {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	return b.String()
}

// Prover proves equations over one specification, accumulating lemmas.
type Prover struct {
	sp       *spec.Spec
	lemmas   []Equation
	maxSteps int
	fresh    int
}

// New returns a prover for the specification.
func New(sp *spec.Spec) *Prover {
	return &Prover{sp: sp, maxSteps: 1 << 18}
}

// Learn registers an equation as a rewrite lemma (oriented left to
// right) for subsequent proofs. Prove calls it automatically on success;
// call it directly only for equations established by other means.
func (p *Prover) Learn(eq Equation) { p.lemmas = append(p.lemmas, eq) }

// ParseEquation builds an equation from source text with the given
// variable environment.
func (p *Prover) ParseEquation(lhs, rhs string, vars map[string]sig.Sort) (Equation, error) {
	l, err := core.ParseAxiomSide(p.sp, lhs, vars, "")
	if err != nil {
		return Equation{}, fmt.Errorf("induct: left side: %w", err)
	}
	r, err := core.ParseAxiomSide(p.sp, rhs, vars, l.Sort)
	if err != nil {
		return Equation{}, fmt.Errorf("induct: right side: %w", err)
	}
	return Equation{LHS: l, RHS: r}, nil
}

// Prove attempts to prove the equation by structural induction on the
// named variable, which must occur in the equation and have an inductive
// sort (one with constructors). On success the equation is learned.
func (p *Prover) Prove(eq Equation, inductVar string) (*Proof, error) {
	v, err := p.findVar(eq, inductVar)
	if err != nil {
		return nil, err
	}
	ctors := p.sp.Constructors(v.Sort)
	if len(ctors) == 0 {
		return nil, fmt.Errorf("induct: sort %s has no constructors to induct over", v.Sort)
	}
	proof := &Proof{Equation: eq, InductVar: inductVar}
	for _, ctor := range ctors {
		proof.Cases = append(proof.Cases, p.proveCase(eq, v, ctor))
	}
	if proof.Proved() {
		p.Learn(eq)
	}
	return proof, nil
}

func (p *Prover) findVar(eq Equation, name string) (*term.Term, error) {
	for _, v := range append(eq.LHS.Vars(), eq.RHS.Vars()...) {
		if v.Sym == name {
			if p.sp.Sig.OpenSort(v.Sort) {
				return nil, fmt.Errorf("induct: variable %s has open sort %s; induct on a constructor sort", name, v.Sort)
			}
			return v, nil
		}
	}
	return nil, fmt.Errorf("induct: variable %s does not occur in %s", name, eq)
}

// proveCase discharges one constructor case.
func (p *Prover) proveCase(eq Equation, v *term.Term, ctor *sig.Operation) *Case {
	// Fresh eigenvariables for the constructor arguments, represented
	// as atoms so that the induction hypotheses — in which they stand
	// for one FIXED (structurally smaller) value — match only
	// themselves. Encoding them as pattern variables would let the
	// hypothesis rewrite arbitrary instances of the goal equation,
	// which both loops (commutativity) and begs the question.
	args := make([]*term.Term, len(ctor.Domain))
	var hyps []Equation
	for i, d := range ctor.Domain {
		p.fresh++
		args[i] = term.NewAtom(fmt.Sprintf("%s_%d", v.Sym, p.fresh), d)
	}
	inst := subst.Subst{v.Sym: term.NewOp(ctor.Name, ctor.Range, args...)}
	goal := Equation{LHS: inst.Apply(eq.LHS), RHS: inst.Apply(eq.RHS)}

	for i, d := range ctor.Domain {
		if d != v.Sort {
			continue
		}
		ih := subst.Subst{v.Sym: args[i]}
		hyps = append(hyps, Equation{LHS: ih.Apply(eq.LHS), RHS: ih.Apply(eq.RHS)})
	}

	c := &Case{Constructor: ctor.Name, Goal: goal, Hypotheses: hyps}

	// Try the hypotheses oriented left-to-right first, then
	// right-to-left: some goals need the IH applied "backwards".
	for _, flip := range []bool{false, true} {
		sys := p.systemWith(hyps, flip)
		l, errL := sys.Normalize(goal.LHS)
		r, errR := sys.Normalize(goal.RHS)
		if errL != nil || errR != nil {
			if !flip {
				continue
			}
			c.status = caseError
			if errL != nil {
				c.Err = errL
			} else {
				c.Err = errR
			}
			return c
		}
		c.LeftNF, c.RightNF = l, r
		if l.Equal(r) {
			c.status = caseProved
			return c
		}
		// Residual symbolic conditionals: case-split on their
		// conditions (e.g. or over if needs sameElem? decided).
		if p.splitProves(sys, l, r, 4) {
			c.status = caseProved
			return c
		}
	}
	c.status = caseStuck
	return c
}

// splitProves attempts to close the gap between two symbolic normal
// forms by case analysis on the boolean conditions left residual in
// them: for each candidate condition, both sides are specialized to the
// condition being true and being false (by exact-subterm replacement),
// renormalized, and compared — recursively, up to the given depth.
func (p *Prover) splitProves(sys *rewrite.System, l, r *term.Term, depth int) bool {
	if l.Equal(r) {
		return true
	}
	if depth <= 0 {
		return false
	}
	for _, cond := range residualConditions(l, r) {
		ok := true
		for _, val := range []*term.Term{term.True(), term.False()} {
			ls, errL := sys.Normalize(replaceExact(l, cond, val))
			rs, errR := sys.Normalize(replaceExact(r, cond, val))
			if errL != nil || errR != nil || !p.splitProves(sys, ls, rs, depth-1) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// residualConditions collects the distinct boolean conditions of the
// conditionals remaining in the two terms, outermost first. A proof
// splits on only a few, so each new one is compared with those already
// collected.
func residualConditions(l, r *term.Term) []*term.Term {
	var out []*term.Term
	add := func(t *term.Term) {
		t.Walk(func(u *term.Term) bool {
			if u.IsIf() {
				cond := u.Args[0]
				if !slices.ContainsFunc(out, cond.Equal) {
					out = append(out, cond)
				}
			}
			return true
		})
	}
	add(l)
	add(r)
	return out
}

// replaceExact replaces every subterm structurally equal to old with
// rep (variables are treated as constants — no pattern matching).
func replaceExact(t, old, rep *term.Term) *term.Term {
	if t.Equal(old) {
		return rep
	}
	if len(t.Args) == 0 {
		return t
	}
	changed := false
	args := make([]*term.Term, len(t.Args))
	for i, a := range t.Args {
		args[i] = replaceExact(a, old, rep)
		if args[i] != a {
			changed = true
		}
	}
	if !changed {
		return t
	}
	return &term.Term{Kind: t.Kind, Sym: t.Sym, Sort: t.Sort, Args: args}
}

// systemWith builds a rewrite system extending the specification's
// axioms with the learned lemmas and the case's hypotheses.
func (p *Prover) systemWith(hyps []Equation, flipHyps bool) *rewrite.System {
	aug := &spec.Spec{
		Name:   p.sp.Name,
		Sig:    p.sp.Sig,
		OwnOps: p.sp.OwnOps,
	}
	// Lemmas and hypotheses get priority over the base axioms: they are
	// usually the only rules that can make progress on open terms, and
	// rule order within a head symbol follows slice order.
	var extra []*spec.Axiom
	for i, lm := range p.lemmas {
		if ax := equationRule(lm, fmt.Sprintf("lemma%d", i+1), false); ax != nil {
			extra = append(extra, ax)
		}
	}
	for i, h := range hyps {
		if ax := equationRule(h, fmt.Sprintf("ih%d", i+1), flipHyps); ax != nil {
			extra = append(extra, ax)
		}
	}
	aug.All = append(extra, p.sp.All...)
	return rewrite.New(aug, rewrite.WithMaxSteps(p.maxSteps))
}

// equationRule orients an equation as a rewrite rule, or returns nil if
// the chosen left side cannot serve as a pattern (it must be an
// operation application whose variables cover the right side's).
func equationRule(eq Equation, label string, flip bool) *spec.Axiom {
	l, r := eq.LHS, eq.RHS
	if flip {
		l, r = r, l
	}
	if l.Kind != term.Op || l.IsIf() {
		return nil
	}
	lhsVars := map[string]bool{}
	for _, v := range l.Vars() {
		lhsVars[v.Sym] = true
	}
	for _, v := range r.Vars() {
		if !lhsVars[v.Sym] {
			return nil
		}
	}
	return &spec.Axiom{Label: label, Owner: "induct", LHS: l, RHS: r}
}

// Refute searches for a ground counterexample to an equation by
// enumerating instantiations up to the given depth; it returns a
// disproving assignment, or nil if none was found within the bound. Use
// it before attempting long proofs of doubtful conjectures.
func (p *Prover) Refute(eq Equation, gen interface {
	Instantiations(vars []*term.Term, maxDepth, limit int) []map[string]*term.Term
}, depth, limit int) (map[string]*term.Term, error) {
	sys := rewrite.New(p.sp, rewrite.WithMaxSteps(p.maxSteps))
	vars := eq.LHS.Vars()
	seen := map[string]bool{}
	for _, v := range vars {
		seen[v.Sym] = true
	}
	for _, v := range eq.RHS.Vars() {
		if !seen[v.Sym] {
			vars = append(vars, v)
			seen[v.Sym] = true
		}
	}
	for _, inst := range gen.Instantiations(vars, depth, limit) {
		s := subst.Subst(inst)
		l, err := sys.Normalize(s.Apply(eq.LHS))
		if err != nil {
			return nil, err
		}
		r, err := sys.Normalize(s.Apply(eq.RHS))
		if err != nil {
			return nil, err
		}
		if !l.Equal(r) {
			return inst, nil
		}
	}
	return nil, nil
}
