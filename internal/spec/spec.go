// Package spec defines the checked specification model: a flattened
// signature plus labelled axioms. A Spec is what the paper calls an
// algebraic specification — "two pairs: a syntactic specification and a
// set of relations" (CACM 20(6) §2) — after semantic analysis has resolved
// uses, variables and sorts.
package spec

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"algspec/internal/sig"
	"algspec/internal/term"
)

// Axiom is one relation LHS = RHS over the signature. The LHS is always an
// operation application whose head is the operation the axiom helps
// define; variables occurring in the RHS also occur in the LHS.
type Axiom struct {
	// Label identifies the axiom in reports ("Q1", "3", ...). Labels are
	// unique within a spec; unlabelled axioms get ordinal labels.
	Label string
	// Owner is the name of the spec that stated the axiom (axioms are
	// inherited through uses).
	Owner string
	LHS   *term.Term
	RHS   *term.Term
}

// Head returns the operation name the axiom defines (the head of its LHS).
func (a *Axiom) Head() string { return a.LHS.Sym }

// String renders the axiom as "[label] lhs = rhs".
func (a *Axiom) String() string {
	if a.Label != "" {
		return fmt.Sprintf("[%s] %s = %s", a.Label, a.LHS, a.RHS)
	}
	return fmt.Sprintf("%s = %s", a.LHS, a.RHS)
}

// Spec is a checked specification.
type Spec struct {
	// Name is the specification's name; by convention it is also its
	// principal sort (the type of interest), when such a sort exists.
	Name string
	// Sig is the flattened signature: this spec's sorts and operations
	// plus those of every spec it (transitively) uses.
	Sig *sig.Signature
	// OwnOps lists the names of operations declared by this spec itself,
	// in declaration order.
	OwnOps []string
	// OwnSorts lists the sorts introduced by this spec itself (principal,
	// parameter, atom and auxiliary sorts), as opposed to those inherited
	// through uses. Instantiate renames exactly these.
	OwnSorts []sig.Sort
	// Own are the axioms stated by this spec, in source order.
	Own []*Axiom
	// All are Own plus the axioms inherited from used specs. Inherited
	// axioms come first, in dependency order, so rule priority within
	// one spec matches source order.
	All []*Axiom
	// Uses lists directly used spec names, in source order.
	Uses []string
}

// PrincipalSort returns the sort named after the spec if the signature has
// one, and "" otherwise (pure collections of operations are legal).
func (s *Spec) PrincipalSort() (sig.Sort, bool) {
	ps := sig.Sort(s.Name)
	if s.Sig.HasSort(ps) {
		return ps, true
	}
	return "", false
}

// AxiomsFor returns all axioms (inherited and own) whose head is the named
// operation, in rule-priority order.
func (s *Spec) AxiomsFor(op string) []*Axiom {
	var out []*Axiom
	for _, a := range s.All {
		if a.Head() == op {
			out = append(out, a)
		}
	}
	return out
}

// AxiomByLabel finds an own axiom by label.
func (s *Spec) AxiomByLabel(label string) (*Axiom, bool) {
	for _, a := range s.Own {
		if a.Label == label {
			return a, true
		}
	}
	return nil, false
}

// Constructors returns the constructor operations of the given sort: the
// operations with that range that never appear as the head of any axiom.
// In Guttag's development these are the operations in terms of which all
// values of the type can be written (NEW and ADD for Queue; the
// completeness check is "every extension applied to every constructor form
// is covered"). Native operations are never constructors.
func (s *Spec) Constructors(so sig.Sort) []*sig.Operation {
	heads := s.headSet()
	var out []*sig.Operation
	for _, op := range s.Sig.OpsWithRange(so) {
		if heads[op.Name] || op.Native {
			continue
		}
		out = append(out, op)
	}
	return out
}

// Extensions returns the non-constructor operations with the given range
// or taking the given sort as an argument — the operations whose meaning
// the axioms must pin down on all constructor forms.
func (s *Spec) Extensions() []*sig.Operation {
	heads := s.headSet()
	var out []*sig.Operation
	for _, op := range s.Sig.Ops() {
		if heads[op.Name] && !op.Native {
			out = append(out, op)
		}
	}
	return out
}

// Observable reports whether values of the sort can be compared directly
// rather than through observer contexts: Bool, and the open (atom and
// parameter) sorts. This is the one decision of what a checker observes.
func (s *Spec) Observable(so sig.Sort) bool {
	return so == sig.BoolSort || s.Sig.OpenSort(so)
}

// Observers returns the operations whose ground applications a checker
// observes: the non-native, non-constructor operations whose range is
// observable or one of the extra sorts (sorts a client declares it can
// represent), in signature order.
func (s *Spec) Observers(extra ...sig.Sort) []*sig.Operation {
	var out []*sig.Operation
	for _, op := range s.Extensions() {
		if s.Observable(op.Range) || slices.Contains(extra, op.Range) {
			out = append(out, op)
		}
	}
	return out
}

// IsConstructor reports whether the named operation is a constructor
// (heads no axiom and is not native). It scans the axioms rather than
// building the head set, which suits a caller asking of a few names; one
// asking of every node of many terms builds the set once
// (rewrite.ConstructorForms).
func (s *Spec) IsConstructor(op string) bool {
	o, ok := s.Sig.Op(op)
	if !ok || o.Native {
		return false
	}
	for _, a := range s.All {
		if a.Head() == op {
			return false
		}
	}
	return true
}

func (s *Spec) headSet() map[string]bool {
	heads := make(map[string]bool, len(s.All))
	for _, a := range s.All {
		heads[a.Head()] = true
	}
	return heads
}

// OwnOperations returns this spec's own operation declarations in order.
func (s *Spec) OwnOperations() []*sig.Operation {
	out := make([]*sig.Operation, 0, len(s.OwnOps))
	for _, n := range s.OwnOps {
		if op, ok := s.Sig.Op(n); ok {
			out = append(out, op)
		}
	}
	return out
}

// Validate performs internal consistency checks on the assembled spec.
// Semantic analysis establishes these properties; Validate exists so that
// programmatically built specs (speclib, tests) get the same guarantees.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec: empty name")
	}
	if s.Sig == nil {
		return fmt.Errorf("spec %s: nil signature", s.Name)
	}
	if err := s.Sig.Validate(); err != nil {
		return fmt.Errorf("spec %s: %v", s.Name, err)
	}
	labels := make(map[string]bool)
	for _, a := range s.Own {
		if a.Label != "" {
			if labels[a.Label] {
				return fmt.Errorf("spec %s: duplicate axiom label %q", s.Name, a.Label)
			}
			labels[a.Label] = true
		}
	}
	for _, a := range s.All {
		if err := s.validateAxiom(a); err != nil {
			return err
		}
	}
	return nil
}

func (s *Spec) validateAxiom(a *Axiom) error {
	if a.LHS == nil || a.RHS == nil {
		return fmt.Errorf("spec %s: axiom %s: missing side", s.Name, a.Label)
	}
	if a.LHS.Kind != term.Op || a.LHS.IsIf() {
		return fmt.Errorf("spec %s: axiom %s: left-hand side must be an operation application, got %s", s.Name, a.Label, a.LHS)
	}
	if _, ok := s.Sig.Op(a.LHS.Sym); !ok {
		return fmt.Errorf("spec %s: axiom %s: unknown operation %s", s.Name, a.Label, a.LHS.Sym)
	}
	if a.LHS.Sort != a.RHS.Sort && a.RHS.Kind != term.Err {
		return fmt.Errorf("spec %s: axiom %s: sides have different sorts (%s vs %s)", s.Name, a.Label, a.LHS.Sort, a.RHS.Sort)
	}
	lhsVars := make(map[string]sig.Sort)
	for _, v := range a.LHS.Vars() {
		lhsVars[v.Sym] = v.Sort
	}
	for _, v := range a.RHS.Vars() {
		if _, ok := lhsVars[v.Sym]; !ok {
			return fmt.Errorf("spec %s: axiom %s: right-hand side variable %s does not occur on the left", s.Name, a.Label, v.Sym)
		}
	}
	var bad error
	check := func(t *term.Term) {
		t.Walk(func(u *term.Term) bool {
			if bad != nil {
				return false
			}
			if u.Kind == term.Op && !u.IsIf() {
				op, ok := s.Sig.Op(u.Sym)
				if !ok {
					bad = fmt.Errorf("spec %s: axiom %s: unknown operation %s", s.Name, a.Label, u.Sym)
					return false
				}
				if op.Arity() != len(u.Args) {
					bad = fmt.Errorf("spec %s: axiom %s: %s applied to %d arguments, wants %d", s.Name, a.Label, u.Sym, len(u.Args), op.Arity())
					return false
				}
			}
			return true
		})
	}
	check(a.LHS)
	check(a.RHS)
	return bad
}

// NonLeftLinearAxioms returns the own axioms whose LHS repeats a variable.
// The paper's axioms are all left-linear — repeated identifiers are
// compared with IS_SAME? instead — and the rewrite engine matches
// syntactically, so repeated pattern variables deserve a warning.
func (s *Spec) NonLeftLinearAxioms() []*Axiom {
	var out []*Axiom
	for _, a := range s.Own {
		seen := make(map[string]int)
		a.LHS.Walk(func(u *term.Term) bool {
			if u.Kind == term.Var {
				seen[u.Sym]++
			}
			return true
		})
		for _, n := range seen {
			if n > 1 {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// String renders the whole spec in (approximately) the surface syntax.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s\n", s.Name)
	if len(s.Uses) > 0 {
		fmt.Fprintf(&b, "  uses %s\n", strings.Join(s.Uses, ", "))
	}
	params := make([]string, 0)
	for _, so := range s.Sig.Sorts() {
		if s.Sig.IsParam(so) {
			params = append(params, string(so))
		}
	}
	sort.Strings(params)
	if len(params) > 0 {
		fmt.Fprintf(&b, "  param %s\n", strings.Join(params, ", "))
	}
	b.WriteString("  ops\n")
	for _, op := range s.OwnOperations() {
		fmt.Fprintf(&b, "    %s\n", op)
	}
	b.WriteString("  axioms\n")
	for _, a := range s.Own {
		fmt.Fprintf(&b, "    %s\n", a)
	}
	b.WriteString("end\n")
	return b.String()
}
