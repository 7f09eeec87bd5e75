// Package complete implements the sufficient-completeness analysis of
// Guttag's thesis (the paper's §3: "a system to mechanically 'verify' the
// sufficient-completeness of that specification"). A specification is
// sufficiently complete when every ground term whose outermost operation
// is an extension (non-constructor) reduces to a term built purely of
// constructors, atoms, or error — i.e. the axioms pin down the value of
// every observer on every constructor form.
//
// The package offers the two complementary checks:
//
//   - Check performs a static case-coverage analysis over the axiom
//     left-hand sides, per extension operation. It reports the exact
//     uncovered case (e.g. remove(new)) — the information the paper's
//     interactive system "prompts the user to supply". The analysis is a
//     first-order variant of pattern-matrix usefulness checking.
//
//   - CheckDynamic generates ground extension terms up to a depth bound,
//     normalizes each, and reports any that fail to reach constructor
//     form. This is the semantic definition made finite, and also catches
//     incompleteness hidden behind conditionals.
package complete

import (
	"fmt"
	"strings"

	"algspec/internal/gen"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// Missing records one uncovered case of one extension operation.
type Missing struct {
	Op string
	// Example is a witness term: the extension applied to constructor
	// patterns not matched by any axiom. Don't-care positions hold
	// variables.
	Example *term.Term
}

func (m Missing) String() string {
	return fmt.Sprintf("operation %s: no axiom covers %s", m.Op, m.Example)
}

// Warning is an advisory finding that does not itself make the
// specification incomplete.
type Warning struct {
	Axiom string
	Msg   string
}

func (w Warning) String() string {
	if w.Axiom != "" {
		return fmt.Sprintf("axiom [%s]: %s", w.Axiom, w.Msg)
	}
	return w.Msg
}

// Report is the result of the static analysis.
type Report struct {
	Spec    string
	Missing []Missing
	// Warnings flags constructs outside the analyzable fragment
	// (non-constructor symbols inside patterns, non-left-linear
	// patterns, recursion the termination heuristic cannot discharge).
	Warnings []Warning
}

// OK reports whether no uncovered case was found.
func (r *Report) OK() bool { return len(r.Missing) == 0 }

// String renders the report for human consumption.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sufficient-completeness of %s: ", r.Spec)
	if r.OK() {
		b.WriteString("OK")
	} else {
		fmt.Fprintf(&b, "%d missing case(s)", len(r.Missing))
	}
	b.WriteByte('\n')
	for _, m := range r.Missing {
		fmt.Fprintf(&b, "  MISSING  %s\n", m)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "  warning  %s\n", w)
	}
	return b.String()
}

// Check runs the static case-coverage analysis on the spec's own
// extension operations (inherited operations were checked when their
// owning spec was checked).
func Check(sp *spec.Spec) *Report {
	r := &Report{Spec: sp.Name}
	c := &checker{sp: sp, report: r, fresh: 0}

	for _, a := range sp.NonLeftLinearAxioms() {
		r.Warnings = append(r.Warnings, Warning{Axiom: a.Label,
			Msg: "left-hand side repeats a variable; the engine matches syntactically (use a same?-style equality instead)"})
	}

	for _, opName := range sp.OwnOps {
		op := sp.Sig.MustOp(opName)
		if op.Native || sp.IsConstructor(opName) {
			continue
		}
		axioms := sp.AxiomsFor(opName)
		if len(axioms) == 0 {
			// An extension with no axioms at all cannot happen (it
			// would be classified a constructor); this branch guards
			// against future classification changes.
			continue
		}
		c.checkOp(op, axioms)
	}
	c.terminationHeuristic()
	return r
}

type checker struct {
	sp     *spec.Spec
	report *Report
	fresh  int
}

func (c *checker) freshVar(so sig.Sort) *term.Term {
	c.fresh++
	return term.NewVar(fmt.Sprintf("_%d", c.fresh), so)
}

// checkOp runs the coverage analysis for one extension operation.
func (c *checker) checkOp(op *sig.Operation, axioms []*spec.Axiom) {
	var matrix [][]*term.Term
	for _, a := range axioms {
		row := a.LHS.Args
		if bad := c.nonPatternSymbol(row); bad != "" {
			c.report.Warnings = append(c.report.Warnings, Warning{Axiom: a.Label,
				Msg: fmt.Sprintf("pattern contains non-constructor operation %s; the row is ignored for coverage", bad)})
			continue
		}
		matrix = append(matrix, row)
	}
	sorts := op.Domain
	witness := c.missing(matrix, sorts)
	if witness != nil {
		c.report.Missing = append(c.report.Missing, Missing{
			Op:      op.Name,
			Example: term.NewOp(op.Name, op.Range, witness...),
		})
	}
}

// nonPatternSymbol returns the first operation symbol in the row that is
// neither a constructor nor admissible in a pattern, or "".
func (c *checker) nonPatternSymbol(row []*term.Term) string {
	bad := ""
	for _, p := range row {
		p.Walk(func(u *term.Term) bool {
			if bad != "" {
				return false
			}
			if u.Kind == term.Op {
				if u.IsIf() || !c.sp.IsConstructor(u.Sym) {
					bad = u.Sym
					return false
				}
			}
			return true
		})
	}
	return bad
}

// missing returns a witness vector of values not matched by any row of
// the pattern matrix, or nil when the matrix is exhaustive. It is the
// classic exhaustiveness recursion: a first column containing only
// variables is dropped (it matches anything); otherwise the column is
// specialized by each constructor (plus a fresh-atom default for open
// sorts). Splitting only at columns that contain a constructor or atom
// pattern is what guarantees termination on recursive sorts.
func (c *checker) missing(matrix [][]*term.Term, sorts []sig.Sort) []*term.Term {
	if len(sorts) == 0 {
		if len(matrix) > 0 {
			return nil // some row matches the empty vector
		}
		return []*term.Term{} // nothing matches
	}
	if len(matrix) == 0 {
		// No row can match: any value vector is a witness; fresh
		// variables denote "any value" in the report.
		w := make([]*term.Term, len(sorts))
		for i, so := range sorts {
			w[i] = c.freshVar(so)
		}
		return w
	}
	headSort := sorts[0]

	allVars := true
	for _, row := range matrix {
		if row[0].Kind != term.Var {
			allVars = false
			break
		}
	}
	if allVars {
		rest := make([][]*term.Term, len(matrix))
		for i, row := range matrix {
			rest[i] = row[1:]
		}
		if w := c.missing(rest, sorts[1:]); w != nil {
			return append([]*term.Term{c.freshVar(headSort)}, w...)
		}
		return nil
	}

	if c.sp.Sig.OpenSort(headSort) {
		return c.missingOpen(matrix, sorts)
	}

	ctors := c.sp.Constructors(headSort)
	for _, ctor := range ctors {
		spec := c.specialize(matrix, ctor)
		subSorts := append(append([]sig.Sort(nil), ctor.Domain...), sorts[1:]...)
		if w := c.missing(spec, subSorts); w != nil {
			head := term.NewOp(ctor.Name, ctor.Range, w[:len(ctor.Domain)]...)
			return append([]*term.Term{head}, w[len(ctor.Domain):]...)
		}
	}
	return nil
}

// missingOpen handles a first column of an open sort: variables cover
// everything; atom patterns cover single points. A fresh atom not among
// the pattern atoms witnesses non-exhaustiveness of the point rows, so
// coverage requires a variable row (directly or after the atom split).
func (c *checker) missingOpen(matrix [][]*term.Term, sorts []sig.Sort) []*term.Term {
	headSort := sorts[0]
	// Rows with a variable in column one, with the column dropped.
	var defaultRows [][]*term.Term
	atomSpellings := map[string]bool{}
	for _, row := range matrix {
		switch row[0].Kind {
		case term.Var:
			defaultRows = append(defaultRows, row[1:])
		case term.Atom:
			atomSpellings[row[0].Sym] = true
		}
	}
	// A fresh atom is matched only by the default rows.
	if w := c.missing(defaultRows, sorts[1:]); w != nil {
		freshAtom := term.NewAtom(freshSpelling(atomSpellings), headSort)
		return append([]*term.Term{freshAtom}, w...)
	}
	// Each pattern atom must also be covered (by its point rows plus the
	// default rows).
	for spelling := range atomSpellings {
		var rows [][]*term.Term
		for _, row := range matrix {
			switch {
			case row[0].Kind == term.Var:
				rows = append(rows, row[1:])
			case row[0].Kind == term.Atom && row[0].Sym == spelling:
				rows = append(rows, row[1:])
			}
		}
		if w := c.missing(rows, sorts[1:]); w != nil {
			return append([]*term.Term{term.NewAtom(spelling, headSort)}, w...)
		}
	}
	return nil
}

func freshSpelling(used map[string]bool) string {
	for i := 0; ; i++ {
		s := fmt.Sprintf("fresh%d", i)
		if !used[s] {
			return s
		}
	}
}

// specialize filters and expands the matrix for one constructor of the
// first column's sort.
func (c *checker) specialize(matrix [][]*term.Term, ctor *sig.Operation) [][]*term.Term {
	var out [][]*term.Term
	for _, row := range matrix {
		p := row[0]
		switch {
		case p.Kind == term.Var:
			expanded := make([]*term.Term, 0, len(ctor.Domain)+len(row)-1)
			for _, d := range ctor.Domain {
				expanded = append(expanded, c.freshVar(d))
			}
			out = append(out, append(expanded, row[1:]...))
		case p.Kind == term.Op && p.Sym == ctor.Name:
			expanded := make([]*term.Term, 0, len(p.Args)+len(row)-1)
			expanded = append(expanded, p.Args...)
			out = append(out, append(expanded, row[1:]...))
		}
	}
	return out
}

// terminationHeuristic flags own axioms whose recursion the structural
// heuristic cannot discharge. An axiom f(p*) = ... f(t*) ... is accepted
// when some recursive argument t_i is a proper subterm of the
// corresponding pattern p_i, or is an application of a destructor (an
// operation with a projection axiom g(c(x*)) = x_j) to such a subterm.
// Everything else earns an advisory warning; the rewrite engine's fuel
// limit is the backstop.
func (c *checker) terminationHeuristic() {
	destructors := c.destructorSet()
	for _, a := range c.sp.Own {
		head := a.Head()
		ok := true
		a.RHS.Walk(func(u *term.Term) bool {
			if u.Kind == term.Op && u.Sym == head {
				if !c.recursionDecreases(a.LHS, u, destructors) {
					ok = false
				}
			}
			return true
		})
		if !ok {
			c.report.Warnings = append(c.report.Warnings, Warning{Axiom: a.Label,
				Msg: fmt.Sprintf("recursive use of %s is not structurally decreasing; termination is not guaranteed by the heuristic", head)})
		}
	}
}

// destructorSet collects operations with a projection axiom
// g(c(x1..xn)) = xi (e.g. pop, top, pred, tail).
func (c *checker) destructorSet() map[string]bool {
	out := make(map[string]bool)
	for _, a := range c.sp.All {
		if len(a.LHS.Args) == 0 || a.RHS.Kind != term.Var {
			continue
		}
		arg0 := a.LHS.Args[0]
		if arg0.Kind != term.Op {
			continue
		}
		for _, x := range arg0.Args {
			if x.Kind == term.Var && x.Sym == a.RHS.Sym {
				out[a.Head()] = true
			}
		}
	}
	return out
}

// recursionDecreases checks one recursive call against the axiom pattern.
func (c *checker) recursionDecreases(lhs, call *term.Term, destructors map[string]bool) bool {
	for i, arg := range call.Args {
		if i >= len(lhs.Args) {
			break
		}
		pat := lhs.Args[i]
		if isProperSubterm(arg, pat) {
			return true
		}
		// Destructor chain applied to the pattern or a subterm of it.
		inner := arg
		applied := false
		for inner.Kind == term.Op && destructors[inner.Sym] && len(inner.Args) > 0 {
			inner = inner.Args[0]
			applied = true
		}
		if applied && (inner.Equal(pat) || isProperSubterm(inner, pat)) {
			return true
		}
	}
	return false
}

// isProperSubterm reports whether t occurs strictly inside pat.
func isProperSubterm(t, pat *term.Term) bool {
	found := false
	pat.Walk(func(u *term.Term) bool {
		if found {
			return false
		}
		if u != pat && u.Equal(t) {
			found = true
			return false
		}
		return true
	})
	return found
}

// maxTermsPerOp caps the instances the dynamic check tries per
// extension.
const maxTermsPerOp = 2000

// DynamicConfig configures the dynamic check.
type DynamicConfig struct {
	// Depth bounds the generated argument terms (default 4).
	Depth int
	// System, when non-nil, supplies an already-compiled rewrite system
	// for the spec (e.g. from core.Env's cache); workers fork it rather
	// than recompiling the axioms.
	System *rewrite.System
	// Workers sets the number of normalization goroutines (<= 0 means
	// GOMAXPROCS). The report is identical for any worker count.
	Workers int
}

// DynamicFailure records a ground extension term that failed to reach
// constructor normal form.
type DynamicFailure struct {
	Term   *term.Term
	Normal *term.Term // nil if normalization errored
	Err    error
}

func (f DynamicFailure) String() string {
	if f.Err != nil {
		return fmt.Sprintf("%s: %v", f.Term, f.Err)
	}
	return fmt.Sprintf("%s does not reduce to constructor form (stuck at %s)", f.Term, f.Normal)
}

// DynamicReport is the result of the dynamic check.
type DynamicReport struct {
	Spec     string
	Checked  int
	Failures []DynamicFailure
}

// OK reports whether every checked term reached constructor form.
func (r *DynamicReport) OK() bool { return len(r.Failures) == 0 }

func (r *DynamicReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dynamic completeness of %s: %d ground terms checked, ", r.Spec, r.Checked)
	if r.OK() {
		b.WriteString("all reduce to constructor form\n")
	} else {
		fmt.Fprintf(&b, "%d failure(s)\n", len(r.Failures))
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "  FAIL %s\n", f)
		}
	}
	return b.String()
}

// CheckDynamic normalizes ground instances of every own extension
// operation and verifies each reaches constructor form or error. The
// instance list is built deterministically, sharded across workers (each
// with its own forked rewrite system — a System is stateful and must not
// be shared), and the outcomes are merged in instance order, so the
// report does not depend on the worker count.
func CheckDynamic(sp *spec.Spec, cfg DynamicConfig) *DynamicReport {
	if cfg.Depth == 0 {
		cfg.Depth = 4
	}
	r := &DynamicReport{Spec: sp.Name}
	g := gen.New(sp, gen.Config{})
	sys := cfg.System
	if sys == nil {
		sys = rewrite.New(sp)
	} else {
		// The supplied system may be shared (core.Env caches one per
		// spec); batch through a fork so its counters stay untouched.
		sys = sys.Fork()
	}

	// Phase 1: build the full instance list, in the same order the
	// sequential loop visited it.
	var items []*term.Term
	for _, opName := range sp.OwnOps {
		op := sp.Sig.MustOp(opName)
		if op.Native || sp.IsConstructor(opName) {
			continue
		}
		items = append(items, g.Applications(op, cfg.Depth, maxTermsPerOp)...)
	}
	r.Checked = len(items)

	// Phase 2: normalize the whole batch through the engine's batched
	// API (forked sibling systems, deterministic merge).
	nfs, errs := sys.NormalizeAll(items, cfg.Workers)

	// Phase 3: classify in item order.
	for i, t := range items {
		if errs != nil && errs[i] != nil {
			r.Failures = append(r.Failures, DynamicFailure{Term: t, Err: errs[i]})
			continue
		}
		if !rewrite.IsConstructorForm(sp, nfs[i]) {
			r.Failures = append(r.Failures, DynamicFailure{Term: t, Normal: nfs[i]})
		}
	}
	return r
}
