// Package sema performs semantic analysis: it turns a parsed ast.Spec into
// a checked spec.Spec. Analysis resolves the uses-hierarchy, builds the
// flattened signature, disambiguates bare names into variables or nullary
// operations, sort-checks every axiom, and enforces the shape restrictions
// the paper's relations obey (the left side of an axiom is an operation
// application built from constructors and variables; conditionals and
// error appear only on the right).
package sema

import (
	"fmt"
	"strconv"

	"algspec/internal/ast"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// Resolver supplies previously checked specifications by name, for
// resolving uses-clauses.
type Resolver func(name string) (*spec.Spec, bool)

// Error is a positioned semantic error.
type Error struct {
	Spec string
	Pos  ast.Pos
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("spec %s: %s: %s", e.Spec, e.Pos, e.Msg)
}

// Build checks one parsed specification against an environment of already
// checked specifications.
func Build(sp *ast.Spec, resolve Resolver) (*spec.Spec, error) {
	c := &checker{astSpec: sp, resolve: resolve}
	return c.run()
}

type checker struct {
	astSpec *ast.Spec
	resolve Resolver
	out     *spec.Spec
	vars    map[string]sig.Sort
}

func (c *checker) errf(pos ast.Pos, format string, args ...any) error {
	return &Error{Spec: c.astSpec.Name, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) run() (*spec.Spec, error) {
	sp := c.astSpec
	out := &spec.Spec{Name: sp.Name, Sig: sig.New(sp.Name)}
	c.out = out

	// Resolve uses and merge their flattened signatures and axioms.
	includedOwner := make(map[string]bool)
	for _, u := range sp.Uses {
		used, ok := c.resolve(u.Name)
		if !ok {
			return nil, c.errf(u.Pos, "uses unknown specification %s", u.Name)
		}
		out.Uses = append(out.Uses, u.Name)
		if err := out.Sig.Merge(used.Sig); err != nil {
			return nil, c.errf(u.Pos, "%v", err)
		}
		for _, a := range used.All {
			if includedOwner[a.Owner+"\x00"+a.Label] {
				continue
			}
			includedOwner[a.Owner+"\x00"+a.Label] = true
			out.All = append(out.All, a)
		}
	}

	// Declare sorts: params, atom sorts, auxiliary sorts, then the
	// principal sort (named after the spec) if the spec mentions it.
	for _, d := range sp.Params {
		if err := out.Sig.AddParam(sig.Sort(d.Name)); err != nil {
			return nil, c.errf(d.Pos, "%v", err)
		}
		out.OwnSorts = append(out.OwnSorts, sig.Sort(d.Name))
	}
	for _, d := range sp.Atoms {
		if out.Sig.HasSort(sig.Sort(d.Name)) {
			if err := out.Sig.MarkAtomSort(sig.Sort(d.Name)); err != nil {
				return nil, c.errf(d.Pos, "%v", err)
			}
			continue
		}
		if err := out.Sig.AddAtomSort(sig.Sort(d.Name)); err != nil {
			return nil, c.errf(d.Pos, "%v", err)
		}
		out.OwnSorts = append(out.OwnSorts, sig.Sort(d.Name))
	}
	for _, d := range sp.Sorts {
		if err := out.Sig.AddSort(sig.Sort(d.Name)); err != nil {
			return nil, c.errf(d.Pos, "%v", err)
		}
		out.OwnSorts = append(out.OwnSorts, sig.Sort(d.Name))
	}
	if c.mentionsPrincipalSort() && !out.Sig.HasSort(sig.Sort(sp.Name)) {
		if err := out.Sig.AddSort(sig.Sort(sp.Name)); err != nil {
			return nil, c.errf(sp.Pos, "%v", err)
		}
		out.OwnSorts = append(out.OwnSorts, sig.Sort(sp.Name))
	}

	// Declare operations.
	for _, d := range sp.Ops {
		op := &sig.Operation{
			Name:   d.Name,
			Range:  sig.Sort(d.Range),
			Owner:  sp.Name,
			Native: d.Native,
		}
		for _, ds := range d.Domain {
			op.Domain = append(op.Domain, sig.Sort(ds))
		}
		for _, ds := range op.Domain {
			if !out.Sig.HasSort(ds) {
				return nil, c.errf(d.Pos, "operation %s: unknown sort %s", d.Name, ds)
			}
		}
		if !out.Sig.HasSort(op.Range) {
			return nil, c.errf(d.Pos, "operation %s: unknown range sort %s", d.Name, op.Range)
		}
		if err := out.Sig.Declare(op); err != nil {
			return nil, c.errf(d.Pos, "%v", err)
		}
		out.OwnOps = append(out.OwnOps, d.Name)
	}

	// Declare variables.
	c.vars = make(map[string]sig.Sort)
	for _, d := range sp.Vars {
		so := sig.Sort(d.Sort)
		if !out.Sig.HasSort(so) {
			return nil, c.errf(d.Pos, "variable declaration: unknown sort %s", d.Sort)
		}
		for _, n := range d.Names {
			if _, dup := c.vars[n]; dup {
				return nil, c.errf(d.Pos, "variable %s declared twice", n)
			}
			if _, isOp := out.Sig.Op(n); isOp {
				return nil, c.errf(d.Pos, "variable %s shadows an operation of the same name", n)
			}
			c.vars[n] = so
		}
	}

	// Check axioms.
	for i, axd := range sp.Axioms {
		ax, err := c.axiom(axd, i+1)
		if err != nil {
			return nil, err
		}
		out.Own = append(out.Own, ax)
		out.All = append(out.All, ax)
	}

	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// mentionsPrincipalSort reports whether any declaration refers to the sort
// named after the spec, in which case the sort is introduced implicitly
// (the common case: "spec Queue" declares sort Queue).
func (c *checker) mentionsPrincipalSort() bool {
	name := c.astSpec.Name
	for _, d := range c.astSpec.Ops {
		if d.Range == name {
			return true
		}
		for _, ds := range d.Domain {
			if ds == name {
				return true
			}
		}
	}
	for _, d := range c.astSpec.Vars {
		if d.Sort == name {
			return true
		}
	}
	return false
}

func (c *checker) axiom(axd *ast.Axiom, ordinal int) (*spec.Axiom, error) {
	label := axd.Label
	if label == "" {
		label = strconv.Itoa(ordinal)
	}
	lhs, err := c.expr(axd.LHS, "", true)
	if err != nil {
		return nil, err
	}
	if lhs.Kind != term.Op || lhs.IsIf() {
		return nil, c.errf(axd.Pos, "axiom %s: left-hand side must be an operation application, got %s", label, lhs)
	}
	if op, _ := c.out.Sig.Op(lhs.Sym); op != nil && op.Native {
		return nil, c.errf(axd.Pos, "axiom %s: cannot state axioms about native operation %s", label, lhs.Sym)
	}
	rhs, err := c.expr(axd.RHS, lhs.Sort, false)
	if err != nil {
		return nil, err
	}
	ax := &spec.Axiom{Label: label, Owner: c.astSpec.Name, LHS: lhs, RHS: rhs}
	return ax, nil
}

// expr type-checks an expression. expected is the sort required by
// context, or "" to infer; onLHS restricts the expression to pattern form
// (no if, no error).
func (c *checker) expr(e ast.Expr, expected sig.Sort, onLHS bool) (*term.Term, error) {
	switch e := e.(type) {
	case *ast.ErrorLit:
		if onLHS {
			return nil, c.errf(e.Pos, "error may not appear on the left-hand side of an axiom")
		}
		if expected == "" {
			return nil, c.errf(e.Pos, "cannot infer the sort of error here; annotate the context")
		}
		return term.NewErr(expected), nil

	case *ast.AtomLit:
		so, err := c.atomSort(e, expected)
		if err != nil {
			return nil, err
		}
		return term.NewAtom(e.Spelling, so), nil

	case *ast.If:
		if onLHS {
			return nil, c.errf(e.Pos, "conditionals may not appear on the left-hand side of an axiom")
		}
		cond, err := c.expr(e.Cond, sig.BoolSort, false)
		if err != nil {
			return nil, err
		}
		var then, els *term.Term
		if expected != "" {
			if then, err = c.expr(e.Then, expected, false); err != nil {
				return nil, err
			}
			if els, err = c.expr(e.Else, expected, false); err != nil {
				return nil, err
			}
		} else {
			// Infer from whichever branch determines a sort.
			then, err = c.expr(e.Then, "", false)
			if err != nil {
				if els, err = c.expr(e.Else, "", false); err != nil {
					return nil, err
				}
				if then, err = c.expr(e.Then, els.Sort, false); err != nil {
					return nil, err
				}
			} else {
				if els, err = c.expr(e.Else, then.Sort, false); err != nil {
					return nil, err
				}
			}
		}
		t := term.NewIf(cond, then, els)
		if then.Kind == term.Err && els.Kind != term.Err {
			t.Sort = els.Sort
		}
		return t, nil

	case *ast.Call:
		return c.call(e, expected, onLHS)

	default:
		return nil, c.errf(e.ExprPos(), "internal: unknown expression %T", e)
	}
}

func (c *checker) atomSort(e *ast.AtomLit, expected sig.Sort) (sig.Sort, error) {
	if e.SortAnno != "" {
		so := sig.Sort(e.SortAnno)
		if !c.out.Sig.OpenSort(so) {
			return "", c.errf(e.Pos, "'%s: %s is not an atom or parameter sort", e.Spelling, e.SortAnno)
		}
		if expected != "" && expected != so {
			return "", c.errf(e.Pos, "'%s has sort %s, but %s is required here", e.Spelling, so, expected)
		}
		return so, nil
	}
	if expected != "" {
		if !c.out.Sig.OpenSort(expected) {
			return "", c.errf(e.Pos, "'%s used where sort %s is required, but %s is not an atom or parameter sort", e.Spelling, expected, expected)
		}
		return expected, nil
	}
	var atomSorts []sig.Sort
	for _, so := range c.out.Sig.Sorts() {
		if c.out.Sig.OpenSort(so) {
			atomSorts = append(atomSorts, so)
		}
	}
	switch len(atomSorts) {
	case 0:
		return "", c.errf(e.Pos, "'%s used, but no atom sorts are in scope", e.Spelling)
	case 1:
		return atomSorts[0], nil
	default:
		return "", c.errf(e.Pos, "'%s is ambiguous (atom sorts in scope: %v); annotate as '%s:Sort", e.Spelling, atomSorts, e.Spelling)
	}
}

func (c *checker) call(e *ast.Call, expected sig.Sort, onLHS bool) (*term.Term, error) {
	// Bare name: variable first, then nullary operation.
	if !e.Parens && len(e.Args) == 0 {
		if so, ok := c.vars[e.Name]; ok {
			if expected != "" && so != expected {
				return nil, c.errf(e.Pos, "variable %s has sort %s, but %s is required here", e.Name, so, expected)
			}
			return term.NewVar(e.Name, so), nil
		}
	}
	op, ok := c.out.Sig.Op(e.Name)
	if !ok {
		if _, isVar := c.vars[e.Name]; isVar {
			return nil, c.errf(e.Pos, "variable %s cannot be applied to arguments", e.Name)
		}
		return nil, c.errf(e.Pos, "unknown operation %s", e.Name)
	}
	if len(e.Args) != op.Arity() {
		return nil, c.errf(e.Pos, "operation %s applied to %d arguments, wants %d (%s)", e.Name, len(e.Args), op.Arity(), op)
	}
	args := make([]*term.Term, len(e.Args))
	for i, a := range e.Args {
		t, err := c.expr(a, op.Domain[i], onLHS)
		if err != nil {
			return nil, err
		}
		args[i] = t
	}
	if expected != "" && op.Range != expected {
		return nil, c.errf(e.Pos, "operation %s has range %s, but %s is required here", e.Name, op.Range, expected)
	}
	return term.NewOp(op.Name, op.Range, args...), nil
}

// CheckGroundExpr type-checks a standalone expression against a spec with
// no variables in scope (used for evaluating ground terms from the CLI and
// examples). The expected sort may be "" to infer.
func CheckGroundExpr(sp *spec.Spec, e ast.Expr, expected sig.Sort) (*term.Term, error) {
	c := &checker{
		astSpec: &ast.Spec{Name: sp.Name},
		out:     sp,
		vars:    map[string]sig.Sort{},
	}
	t, err := c.expr(e, expected, false)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// CheckExprWithVars type-checks a standalone expression with the given
// variable environment (used by the representation verifier to state
// assumptions and Φ rules textually).
func CheckExprWithVars(sp *spec.Spec, e ast.Expr, vars map[string]sig.Sort, expected sig.Sort) (*term.Term, error) {
	c := &checker{
		astSpec: &ast.Spec{Name: sp.Name},
		out:     sp,
		vars:    vars,
	}
	return c.expr(e, expected, false)
}
