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
	// exprs checks and builds the axioms' sides.
	exprs reader
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
	c.exprs = reader{sp: out, vars: c.vars}
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
	r := &c.exprs
	r.nodes, r.lhs = axd.LHS, true
	lhs, err := r.term("")
	if err != nil {
		return nil, err
	}
	if lhs.Kind != term.Op || lhs.IsIf() {
		return nil, c.errf(axd.Pos, "axiom %s: left-hand side must be an operation application, got %s", label, lhs)
	}
	if op, _ := c.out.Sig.Op(lhs.Sym); op != nil && op.Native {
		return nil, c.errf(axd.Pos, "axiom %s: cannot state axioms about native operation %s", label, lhs.Sym)
	}
	r.nodes, r.lhs = axd.RHS, false
	rhs, err := r.term(lhs.Sort)
	if err != nil {
		return nil, err
	}
	ax := &spec.Axiom{Label: label, Owner: c.astSpec.Name, LHS: lhs, RHS: rhs}
	return ax, nil
}

// CheckExprWithVars type-checks a standalone expression with the given
// variable environment (used by the representation verifier to state
// assumptions and Φ rules textually). The expected sort may be "" to
// infer.
func CheckExprWithVars(sp *spec.Spec, e ast.Expr, vars map[string]sig.Sort, expected sig.Sort) (*term.Term, error) {
	r := &reader{sp: sp, vars: vars, nodes: e}
	return r.term(expected)
}
