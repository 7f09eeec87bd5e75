// Package homo mechanizes the paper's §4 method for proving a
// representation of an abstract type correct. A representation consists
// of (i) an interpretation of each abstract operation f as an operation
// f' over lower-level types, itself given as an algebraic specification
// (the "code" for the primed operations read equationally), and (ii) an
// abstraction function Φ mapping concrete values onto the abstract values
// they represent.
//
// The proof obligations are exactly the paper's: for every abstract axiom
// f(x*) = z,
//
//	(a) if the range of f is the type being defined,
//	    Φ(f'(x*)) = Φ(z') for all legal assignments, and
//	(b) otherwise, f'(x*) = z' for all legal assignments,
//
// where priming replaces every abstract operation by its interpretation.
// The paper discharges these obligations by proof (Musser's mechanical
// verification at USC/ISI); this package discharges them by exhaustive
// verification over all concrete ground values up to a depth bound —
// the same equations, quantified over a finite submodel.
//
// Conditional correctness (§4) is supported through Assumptions: an
// instantiation in which some constrained operation is applied outside
// its assumed precondition (the paper's Assumption 1: "for any term
// ADD'(symtab, id, attr), IS.NEWSTACK?(symtab) = false") is skipped, and
// the skip is counted so reports show how much of the space the
// assumption excludes.
package homo

import (
	"fmt"
	"sort"
	"strings"

	"algspec/internal/core"
	"algspec/internal/gen"
	"algspec/internal/par"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// Representation describes how a concrete specification represents an
// abstract one.
type Representation struct {
	// Abstract and Concrete are the two checked specifications. The
	// concrete spec declares the primed operations (its own ops).
	Abstract *spec.Spec
	Concrete *spec.Spec
	// AbsSort and RepSort are the abstract sort and its representing
	// concrete sort (Symboltable and Stack).
	AbsSort sig.Sort
	RepSort sig.Sort
	// OpMap maps each abstract operation name to its interpretation
	// (init -> init', add -> add', ...).
	OpMap map[string]string
	// PhiRules define the abstraction function Φ as textual equations
	// over the merged vocabulary, e.g.
	//
	//	{"phi(newstack)", "error"}
	//	{"phi(push(stk, empty))",
	//	 "if isNewstack?(stk) then init else enterblock(phi(stk))"}
	//
	// The variables available are declared in PhiVars.
	PhiRules [][2]string
	// PhiVars declares the variables usable in PhiRules and Assumptions.
	PhiVars map[string]sig.Sort
	// Assumptions are environment constraints for conditional
	// correctness; see Assumption.
	Assumptions []Assumption
}

// Assumption constrains the instantiations considered, in the paper's
// schema "for any term Op(..., x_ArgIndex, ...), Pred = Want". An
// instantiated proof obligation containing a subterm Op(a0,...,an) for
// which Pred[x := a_ArgIndex] does not normalize to Want is skipped.
type Assumption struct {
	// Name identifies the assumption in reports ("Assumption 1").
	Name string
	// Op is the constrained operation (e.g. "add'").
	Op string
	// ArgIndex selects the constrained argument.
	ArgIndex int
	// Pred is a textual predicate over the variable "x" of the
	// argument's sort (e.g. "isNewstack?(x)").
	Pred string
	// Want is the required normal form of Pred, textually ("false").
	Want string
}

// PhiOpName is the operation name used for the abstraction function in
// the merged specification.
const PhiOpName = "phi"

// Verifier holds the merged specification and compiled machinery.
type Verifier struct {
	rep    Representation
	merged *spec.Spec
	sys    *rewrite.System
	absSys *rewrite.System
	g      *gen.Generator
	// assumptions with parsed predicates
	assumptions []parsedAssumption
}

type parsedAssumption struct {
	Assumption
	pred *term.Term // over variable x
	want *term.Term
}

// Config tunes verification.
type Config struct {
	// Depth bounds the concrete ground values substituted for variables
	// (default 4).
	Depth int
	// MaxInstancesPerAxiom caps instantiations per axiom (default 5000).
	MaxInstancesPerAxiom int
	// ObsDepth enables an observational re-check when Φ images differ
	// structurally: the two abstract values are compared through
	// abstract observer contexts this deep (0 disables; differences
	// then count as failures directly).
	ObsDepth int
	// Workers sets the number of verification goroutines per axiom
	// (<= 0 means GOMAXPROCS). Each worker forks the merged and abstract
	// rewrite systems; the report is identical for any worker count.
	Workers int
}

func (c *Config) fill() {
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.MaxInstancesPerAxiom == 0 {
		c.MaxInstancesPerAxiom = 5000
	}
}

// New builds a Verifier from a representation description.
func New(rep Representation) (*Verifier, error) {
	if rep.Abstract == nil || rep.Concrete == nil {
		return nil, fmt.Errorf("homo: missing abstract or concrete spec")
	}
	if !rep.Abstract.Sig.HasSort(rep.AbsSort) {
		return nil, fmt.Errorf("homo: abstract spec %s has no sort %s", rep.Abstract.Name, rep.AbsSort)
	}
	if !rep.Concrete.Sig.HasSort(rep.RepSort) {
		return nil, fmt.Errorf("homo: concrete spec %s has no sort %s", rep.Concrete.Name, rep.RepSort)
	}
	for absOp, concOp := range rep.OpMap {
		if _, ok := rep.Abstract.Sig.Op(absOp); !ok {
			return nil, fmt.Errorf("homo: op map mentions unknown abstract operation %s", absOp)
		}
		if _, ok := rep.Concrete.Sig.Op(concOp); !ok {
			return nil, fmt.Errorf("homo: op map mentions unknown concrete operation %s", concOp)
		}
	}

	// Build the merged specification: concrete + abstract vocabulary,
	// all axioms of both (deduplicated by owner+label), plus phi.
	mergedSig := rep.Concrete.Sig.Clone()
	if err := mergedSig.Merge(rep.Abstract.Sig); err != nil {
		return nil, fmt.Errorf("homo: merging signatures: %v", err)
	}
	if err := mergedSig.Declare(&sig.Operation{
		Name:   PhiOpName,
		Domain: []sig.Sort{rep.RepSort},
		Range:  rep.AbsSort,
		Owner:  "phi",
	}); err != nil {
		return nil, fmt.Errorf("homo: declaring phi: %v", err)
	}
	merged := &spec.Spec{
		Name: rep.Abstract.Name + "As" + rep.Concrete.Name,
		Sig:  mergedSig,
	}
	seen := make(map[string]bool)
	for _, a := range append(append([]*spec.Axiom(nil), rep.Concrete.All...), rep.Abstract.All...) {
		key := a.Owner + "\x00" + a.Label
		if seen[key] {
			continue
		}
		seen[key] = true
		merged.All = append(merged.All, a)
	}

	v := &Verifier{rep: rep, merged: merged}

	// Parse the Φ rules and add them as axioms of the merged spec.
	for i, pr := range rep.PhiRules {
		lhs, err := core.ParseAxiomSide(merged, pr[0], rep.PhiVars, "")
		if err != nil {
			return nil, fmt.Errorf("homo: phi rule %d lhs: %v", i+1, err)
		}
		rhs, err := core.ParseAxiomSide(merged, pr[1], rep.PhiVars, lhs.Sort)
		if err != nil {
			return nil, fmt.Errorf("homo: phi rule %d rhs: %v", i+1, err)
		}
		ax := &spec.Axiom{Label: fmt.Sprintf("phi%d", i+1), Owner: "phi", LHS: lhs, RHS: rhs}
		merged.All = append(merged.All, ax)
		merged.Own = append(merged.Own, ax)
	}

	// Parse assumptions.
	for _, as := range rep.Assumptions {
		op, ok := mergedSig.Op(as.Op)
		if !ok {
			return nil, fmt.Errorf("homo: assumption %s constrains unknown operation %s", as.Name, as.Op)
		}
		if as.ArgIndex < 0 || as.ArgIndex >= op.Arity() {
			return nil, fmt.Errorf("homo: assumption %s: argument index %d out of range for %s", as.Name, as.ArgIndex, as.Op)
		}
		vars := map[string]sig.Sort{"x": op.Domain[as.ArgIndex]}
		pred, err := core.ParseAxiomSide(merged, as.Pred, vars, "")
		if err != nil {
			return nil, fmt.Errorf("homo: assumption %s predicate: %v", as.Name, err)
		}
		want, err := core.ParseAxiomSide(merged, as.Want, nil, pred.Sort)
		if err != nil {
			return nil, fmt.Errorf("homo: assumption %s expected value: %v", as.Name, err)
		}
		v.assumptions = append(v.assumptions, parsedAssumption{Assumption: as, pred: pred, want: want})
	}

	v.sys = rewrite.New(merged)
	v.absSys = rewrite.New(rep.Abstract)
	return v, nil
}

// Merged exposes the merged specification (for the CLI and tests).
func (v *Verifier) Merged() *spec.Spec { return v.merged }

// Interpret rewrites an abstract term into its concrete interpretation:
// every mapped operation is primed and every occurrence of the abstract
// sort becomes the representation sort.
func (v *Verifier) Interpret(t *term.Term) *term.Term {
	mapSort := func(so sig.Sort) sig.Sort {
		if so == v.rep.AbsSort {
			return v.rep.RepSort
		}
		return so
	}
	switch t.Kind {
	case term.Var:
		return term.NewVar(t.Sym, mapSort(t.Sort))
	case term.Atom:
		return t
	case term.Err:
		return term.NewErr(mapSort(t.Sort))
	}
	args := make([]*term.Term, len(t.Args))
	for i, a := range t.Args {
		args[i] = v.Interpret(a)
	}
	if t.IsIf() {
		out := term.NewIf(args[0], args[1], args[2])
		out.Sort = mapSort(t.Sort)
		return out
	}
	name := t.Sym
	if mapped, ok := v.rep.OpMap[name]; ok {
		name = mapped
	}
	return term.NewOp(name, mapSort(t.Sort), args...)
}

func phiImage(sys *rewrite.System, absSort sig.Sort, t *term.Term) (*term.Term, error) {
	return sys.Normalize(term.NewOp(PhiOpName, absSort, t))
}

// AxiomResult reports the verification outcome for one abstract axiom.
type AxiomResult struct {
	Axiom *spec.Axiom
	// Instances is the number of variable assignments generated;
	// Skipped of them violated an assumption; Passed held.
	Instances int
	Skipped   int
	Passed    int
	// Failures holds counterexamples (capped).
	Failures []Counterexample
	// ObservationalOnly counts instances where the Φ images differed
	// structurally but were observationally indistinguishable to the
	// configured depth (reported, not failed).
	ObservationalOnly int
}

// Counterexample is one failing assignment.
type Counterexample struct {
	Assignment map[string]*term.Term
	LHS, RHS   *term.Term // the compared (abstract or direct) normal forms
}

func (c Counterexample) String() string {
	names := make([]string, 0, len(c.Assignment))
	for k := range c.Assignment {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s=%s", k, c.Assignment[k]))
	}
	return fmt.Sprintf("{%s}: %s /= %s", strings.Join(parts, ", "), c.LHS, c.RHS)
}

// Report is the outcome of Verify.
type Report struct {
	Representation string
	Results        []*AxiomResult
}

// OK reports whether every axiom held on every non-skipped instance.
func (r *Report) OK() bool {
	for _, res := range r.Results {
		if len(res.Failures) > 0 {
			return false
		}
	}
	return true
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "representation check %s:\n", r.Representation)
	for _, res := range r.Results {
		status := "OK"
		if len(res.Failures) > 0 {
			status = fmt.Sprintf("FAIL (%d counterexamples)", len(res.Failures))
		}
		fmt.Fprintf(&b, "  axiom [%s]: %d instances, %d skipped by assumption, %d passed — %s\n",
			res.Axiom.Label, res.Instances, res.Skipped, res.Passed, status)
		for i, cx := range res.Failures {
			if i >= 3 {
				fmt.Fprintf(&b, "    ... and %d more\n", len(res.Failures)-3)
				break
			}
			fmt.Fprintf(&b, "    %s\n", cx)
		}
	}
	return b.String()
}

// Verify discharges the proof obligations for every abstract own axiom.
func (v *Verifier) Verify(cfg Config) (*Report, error) {
	cfg.fill()
	v.g = gen.New(v.merged, gen.Config{})
	r := &Report{Representation: v.merged.Name}
	for _, ax := range v.rep.Abstract.Own {
		res, err := v.verifyAxiom(ax, cfg)
		if err != nil {
			return nil, err
		}
		r.Results = append(r.Results, res)
	}
	return r, nil
}

// VerifyAxiom discharges the obligations for a single abstract axiom by
// label (used by tests that probe individual axioms, e.g. Axiom 9 with
// and without Assumption 1).
func (v *Verifier) VerifyAxiom(label string, cfg Config) (*AxiomResult, error) {
	cfg.fill()
	v.g = gen.New(v.merged, gen.Config{})
	for _, ax := range v.rep.Abstract.Own {
		if ax.Label == label {
			return v.verifyAxiom(ax, cfg)
		}
	}
	return nil, fmt.Errorf("homo: abstract spec has no axiom labelled %q", label)
}

// verifyAxiom discharges one axiom's obligations. Instances are sharded
// across workers, each holding forked merged and abstract systems (a
// rewrite System is stateful and must not be shared across goroutines);
// outcomes are merged in instance order, so the result — including which
// normalization error surfaces first — does not depend on worker count.
func (v *Verifier) verifyAxiom(ax *spec.Axiom, cfg Config) (*AxiomResult, error) {
	res := &AxiomResult{Axiom: ax}
	lhsI := v.Interpret(ax.LHS)
	rhsI := v.Interpret(ax.RHS)
	wrap := ax.LHS.Sort == v.rep.AbsSort

	insts := v.g.Instantiations(lhsI.Vars(), cfg.Depth, cfg.MaxInstancesPerAxiom)

	type outcome struct {
		skipped bool
		passed  bool
		obsOnly bool
		cx      *Counterexample
		err     error
	}
	outcomes := make([]outcome, len(insts))
	par.ForEach(len(insts), cfg.Workers, func(w, lo, hi int) {
		sys := v.sys.Fork()
		absSys := v.absSys.Fork()
		for i := lo; i < hi; i++ {
			inst := insts[i]
			li := core.Instantiate(lhsI, inst)
			ri := core.Instantiate(rhsI, inst)
			if v.violatesAssumption(sys, li) || v.violatesAssumption(sys, ri) {
				outcomes[i] = outcome{skipped: true}
				continue
			}
			var lv, rv *term.Term
			var err error
			if wrap {
				lv, err = phiImage(sys, v.rep.AbsSort, li)
				if err != nil {
					outcomes[i] = outcome{err: fmt.Errorf("homo: axiom [%s] phi(lhs) %s: %w", ax.Label, li, err)}
					continue
				}
				rv, err = phiImage(sys, v.rep.AbsSort, ri)
				if err != nil {
					outcomes[i] = outcome{err: fmt.Errorf("homo: axiom [%s] phi(rhs) %s: %w", ax.Label, ri, err)}
					continue
				}
			} else {
				lv, err = sys.Normalize(li)
				if err != nil {
					outcomes[i] = outcome{err: fmt.Errorf("homo: axiom [%s] lhs %s: %w", ax.Label, li, err)}
					continue
				}
				rv, err = sys.Normalize(ri)
				if err != nil {
					outcomes[i] = outcome{err: fmt.Errorf("homo: axiom [%s] rhs %s: %w", ax.Label, ri, err)}
					continue
				}
			}
			if lv.Equal(rv) {
				outcomes[i] = outcome{passed: true}
				continue
			}
			if wrap && cfg.ObsDepth > 0 {
				eq, err := v.observationallyEqual(absSys, lv, rv, cfg)
				if err != nil {
					outcomes[i] = outcome{err: err}
					continue
				}
				if eq {
					outcomes[i] = outcome{passed: true, obsOnly: true}
					continue
				}
			}
			outcomes[i] = outcome{cx: &Counterexample{Assignment: inst, LHS: lv, RHS: rv}}
		}
	})

	for i := range outcomes {
		o := outcomes[i]
		if o.err != nil {
			return nil, o.err
		}
		res.Instances++
		switch {
		case o.skipped:
			res.Skipped++
		case o.passed:
			res.Passed++
			if o.obsOnly {
				res.ObservationalOnly++
			}
		case o.cx != nil:
			if len(res.Failures) < 32 {
				res.Failures = append(res.Failures, *o.cx)
			}
		}
	}
	return res, nil
}

// violatesAssumption scans for constrained subterms outside their assumed
// precondition, normalizing predicates in the caller's system.
func (v *Verifier) violatesAssumption(sys *rewrite.System, t *term.Term) bool {
	if len(v.assumptions) == 0 {
		return false
	}
	violated := false
	t.Walk(func(u *term.Term) bool {
		if violated {
			return false
		}
		if u.Kind != term.Op {
			return true
		}
		for _, as := range v.assumptions {
			if u.Sym != as.Op || as.ArgIndex >= len(u.Args) {
				continue
			}
			pred := core.Instantiate(as.pred, map[string]*term.Term{"x": u.Args[as.ArgIndex]})
			nf, err := sys.Normalize(pred)
			if err != nil || !nf.Equal(as.want) {
				violated = true
				return false
			}
		}
		return true
	})
	return violated
}

// observationallyEqual compares two abstract ground values through every
// abstract observer context up to cfg.ObsDepth.
func (v *Verifier) observationallyEqual(absSys *rewrite.System, a, b *term.Term, cfg Config) (bool, error) {
	if a.IsErr() || b.IsErr() {
		return a.IsErr() && b.IsErr(), nil
	}
	return v.obsEqual(absSys, a, b, cfg.ObsDepth)
}

func (v *Verifier) obsEqual(absSys *rewrite.System, a, b *term.Term, depth int) (bool, error) {
	if a.Equal(b) {
		return true, nil
	}
	if depth <= 0 {
		return true, nil
	}
	so := a.Sort
	for _, op := range v.rep.Abstract.Sig.OpsTaking(so) {
		for pos, d := range op.Domain {
			if d != so {
				continue
			}
			for _, fill := range v.g.Instantiations(fillVars(op, pos), 2, 32) {
				ca, cb := contextApply(op, pos, a, fill), contextApply(op, pos, b, fill)
				na, err := absSys.Normalize(ca)
				if err != nil {
					return false, err
				}
				nb, err := absSys.Normalize(cb)
				if err != nil {
					return false, err
				}
				eq, err := v.obsEqual(absSys, na, nb, depth-1)
				if err != nil {
					return false, err
				}
				if !eq {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

func fillVars(op *sig.Operation, hole int) []*term.Term {
	var out []*term.Term
	for i, d := range op.Domain {
		if i == hole {
			continue
		}
		out = append(out, term.NewVar(fmt.Sprintf("f%d", i), d))
	}
	return out
}

func contextApply(op *sig.Operation, hole int, val *term.Term, fill map[string]*term.Term) *term.Term {
	args := make([]*term.Term, len(op.Domain))
	for i := range op.Domain {
		if i == hole {
			args[i] = val
			continue
		}
		args[i] = fill[fmt.Sprintf("f%d", i)]
	}
	return term.NewOp(op.Name, op.Range, args...)
}
