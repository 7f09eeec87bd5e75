// Package model checks a native Go implementation of an abstract data
// type against its algebraic specification — the paper's §5 programme of
// using specifications for testing: "if a programmer is supplied with
// algebraic definitions of the abstract operations available to him and
// forced to write and test his module with only that information
// available to him, he is denied the opportunity to rely ... upon
// information that should not be relied upon."
//
// An implementation is adapted through Impl, which evaluates one
// operation on opaque values. The harness provides the paper's error
// semantics (strict propagation of the distinguished error) and the lazy
// conditional, so implementations only implement the operations proper.
//
// Two checks are provided:
//
//   - CheckAxioms instantiates every axiom with generated ground values
//     and verifies the two sides evaluate to equal values in the
//     implementation (the "inherent invariants" of §4, checked on a
//     finite model). Values of hidden sorts are compared observationally,
//     through gen.ObserverContexts: the sorts the implementation reifies
//     are observed directly, and two values of any other sort are equal
//     unless some context evaluates to different observations of them.
//
//   - CheckAgainstSpec evaluates ground observer terms both symbolically
//     (rewriting) and natively, and verifies agreement — the §5
//     interchangeability of specification and implementation.
package model

import (
	"errors"
	"fmt"
	"strings"

	"algspec/internal/gen"
	"algspec/internal/par"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/subst"
	"algspec/internal/term"
)

// Value is an opaque implementation value.
type Value any

// errValue is the distinguished error value on the implementation side.
type errValue struct{}

func (errValue) String() string { return "error" }

// ErrValue is the implementation-side rendering of the paper's
// distinguished error. Apply returns it for boundary conditions
// (FRONT(NEW), POP(NEWSTACK), ...); the harness propagates it strictly.
var ErrValue Value = errValue{}

// IsErr reports whether a value is the distinguished error.
func IsErr(v Value) bool {
	_, ok := v.(errValue)
	return ok
}

// Impl adapts a native implementation to the harness. The checks run
// their instances on several goroutines, so Apply, Atom and Reify must be
// safe for concurrent calls — which they are automatically when the
// implementation uses persistent (value-semantics) structures, as all the
// bundled adapters do. An implementation with shared mutable state must
// synchronize internally or be run with Config.Workers = 1.
type Impl struct {
	// SpecName names the specification this implements.
	SpecName string
	// Apply evaluates one operation. Arguments never include ErrValue
	// (the harness short-circuits) and never include conditionals.
	// Returning a non-nil error aborts the check (harness misuse);
	// domain errors are signalled by returning ErrValue.
	Apply func(op string, args []Value) (Value, error)
	// Atom injects an atom literal of an atom or parameter sort.
	Atom func(so sig.Sort, spelling string) (Value, error)
	// Reify converts a value of an observable sort back to a
	// constructor term (true/false for Bool, the atom itself for atom
	// sorts, succ^n(zero) for a Nat-like sort...). ok=false means the
	// sort is hidden and must be compared observationally.
	Reify func(so sig.Sort, v Value) (t *term.Term, ok bool, err error)
}

// Config tunes the harness.
type Config struct {
	// Depth bounds generated instantiation terms (default 4).
	Depth int
	// MaxInstancesPerAxiom caps instantiations per axiom (default 2000).
	MaxInstancesPerAxiom int
	// Workers sets the number of checking goroutines (<= 0 means
	// GOMAXPROCS). The report is identical for any worker count; see
	// Impl for the concurrency contract. Set 1 to force sequential
	// checking of a non-thread-safe implementation.
	Workers int
}

func (c *Config) fill() {
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.MaxInstancesPerAxiom == 0 {
		c.MaxInstancesPerAxiom = 2000
	}
}

// obsDepth bounds how many operations an observer context stacks on a
// compared hidden-sort value (gen.ObserverContexts).
const obsDepth = 2

// Failure records one failed axiom instance or disagreement.
type Failure struct {
	Axiom    string
	Instance *term.Term // LHS instance (or the observed term)
	// Context is the observer context that told a hidden-sort instance's
	// two values apart, and Got and Want what its lhs and rhs observe
	// there; nil when the sort is observed directly or a side is error.
	Context *term.Term
	Want    string
	Got     string
}

func (f Failure) String() string {
	switch {
	case f.Context != nil:
		return fmt.Sprintf("axiom [%s] fails on %s: %s observes lhs=%s rhs=%s", f.Axiom, f.Instance, f.Context, f.Got, f.Want)
	case f.Axiom != "":
		return fmt.Sprintf("axiom [%s] fails on %s: lhs=%s rhs=%s", f.Axiom, f.Instance, f.Got, f.Want)
	}
	return fmt.Sprintf("%s: spec says %s, implementation says %s", f.Instance, f.Want, f.Got)
}

// Report is the outcome of a check.
type Report struct {
	Spec     string
	Checked  int
	Failures []Failure
	Errors   []error
}

// OK reports whether no failure or harness error occurred.
func (r *Report) OK() bool { return len(r.Failures) == 0 && len(r.Errors) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model check of %s: %d instance(s), %d failure(s), %d error(s)\n",
		r.Spec, r.Checked, len(r.Failures), len(r.Errors))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  ERROR %v\n", e)
	}
	return b.String()
}

// Harness evaluates ground terms through an implementation with the
// paper's error strictness and lazy conditional. The checks run on it,
// and the conformance subsystem's ModelClient reuses it, so a wire
// session and the model checker observe an implementation alike.
type Harness struct {
	sp   *spec.Spec
	impl *Impl
	g    *gen.Generator // the checks' generator; nil in a bare harness
}

// NewHarness builds a harness over the implementation.
func NewHarness(sp *spec.Spec, impl *Impl) *Harness {
	return &Harness{sp: sp, impl: impl}
}

// Observe evaluates a ground term of a sort the implementation reifies
// and returns what it observes: the reified constructor term, or the
// error term when the value is the distinguished error. It is the step
// CheckAxioms takes in each observer context. The error return means
// the adapter itself misbehaved.
func (h *Harness) Observe(t *term.Term) (*term.Term, error) { return h.observe(t, nil) }

// errStop aborts a check when the implementation adapter itself fails.
var errStop = errors.New("model: implementation adapter error")

// eval evaluates a ground term through the implementation, with
// gen.HoleVar bound to *hole when hole is not nil. Conditionals are
// lazy; error is strict. The error return means the adapter itself
// misbehaved, not a domain error — those come back as ErrValue.
func (h *Harness) eval(t *term.Term, hole *Value) (Value, error) {
	switch t.Kind {
	case term.Err:
		return ErrValue, nil
	case term.Atom:
		return h.impl.Atom(t.Sort, t.Sym)
	case term.Var:
		if hole != nil && t.Sym == gen.HoleVar {
			return *hole, nil
		}
		return nil, fmt.Errorf("%w: free variable %s in ground evaluation", errStop, t.Sym)
	}
	if t.IsIf() {
		cond, err := h.eval(t.Args[0], hole)
		if err != nil {
			return nil, err
		}
		if IsErr(cond) {
			return ErrValue, nil
		}
		b, err := h.reifyBool(cond)
		if err != nil {
			return nil, err
		}
		if b {
			return h.eval(t.Args[1], hole)
		}
		return h.eval(t.Args[2], hole)
	}
	args := make([]Value, len(t.Args))
	for i, a := range t.Args {
		v, err := h.eval(a, hole)
		if err != nil {
			return nil, err
		}
		if IsErr(v) {
			return ErrValue, nil // strictness
		}
		args[i] = v
	}
	return h.impl.Apply(t.Sym, args)
}

func (h *Harness) reifyBool(v Value) (bool, error) {
	t, ok, err := h.impl.Reify(sig.BoolSort, v)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, fmt.Errorf("%w: Bool must be reifiable", errStop)
	}
	switch {
	case t.IsTrue():
		return true, nil
	case t.IsFalse():
		return false, nil
	default:
		return false, fmt.Errorf("%w: Bool reified to %s", errStop, t)
	}
}

// observe is Observe with gen.HoleVar bound to *hole when hole is not
// nil.
func (h *Harness) observe(t *term.Term, hole *Value) (*term.Term, error) {
	v, err := h.eval(t, hole)
	if err != nil {
		return nil, err
	}
	if IsErr(v) {
		return term.NewErr(t.Sort), nil
	}
	rt, ok, err := h.impl.Reify(t.Sort, v)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: sort %s is not reifiable", errStop, t.Sort)
	}
	return rt, nil
}

// reified returns the sorts beyond spec.Observable the implementation
// reifies: those whose Minimal value it observes (Nat, for adapters
// built on int counts).
func (h *Harness) reified() []sig.Sort {
	var out []sig.Sort
	for _, so := range h.sp.Sig.Sorts() {
		if min, ok := h.g.Minimal(so); ok && !h.sp.Observable(so) {
			if obs, err := h.observe(min, nil); err == nil && !obs.IsErr() {
				out = append(out, so)
			}
		}
	}
	return out
}

// judge compares an axiom instance's two evaluated sides through its
// sort's observer contexts and returns the failure to report, if any.
// Error equals only error; two values are equal unless some context
// observes them differently. A sort observed directly (its one context
// is the bare hole) keeps the values' own rendering. A hidden sort is
// rendered by what the first telling context observes, or, when a side
// is error, by the sort of the other.
func (h *Harness) judge(ax *spec.Axiom, lhs *term.Term, lv, rv Value, ctxs []*term.Term) (*Failure, error) {
	f := &Failure{Axiom: ax.Label, Instance: lhs}
	if IsErr(lv) || IsErr(rv) {
		if IsErr(lv) == IsErr(rv) {
			return nil, nil
		}
		f.Got, f.Want = "<"+string(ax.LHS.Sort)+">", term.ErrName
		if IsErr(lv) {
			f.Got, f.Want = f.Want, f.Got
		}
	} else {
		for _, c := range ctxs {
			ol, err := h.observe(c, &lv)
			if err != nil {
				return nil, err
			}
			or, err := h.observe(c, &rv)
			if err != nil {
				return nil, err
			}
			if !ol.Equal(or) {
				f.Context, f.Got, f.Want = c, ol.String(), or.String()
				break
			}
		}
		if f.Context == nil {
			return nil, nil
		}
	}
	if len(ctxs) == 1 && ctxs[0].Kind == term.Var {
		f.Context, f.Got, f.Want = nil, fmt.Sprint(lv), fmt.Sprint(rv)
	}
	return f, nil
}

// CheckAxioms verifies every own axiom of the spec on the implementation.
// Instances are sharded across workers and outcomes merged in instance
// order; merging stops at the first adapter error, reproducing the
// sequential early-return report for any worker count.
func CheckAxioms(sp *spec.Spec, impl *Impl, cfg Config) *Report {
	cfg.fill()
	r := &Report{Spec: sp.Name}
	h := &Harness{sp: sp, impl: impl, g: gen.New(sp, gen.Config{})}
	extra := h.reified()
	ctxs := map[sig.Sort][]*term.Term{}

	type item struct {
		ax       *spec.Axiom
		lhs, rhs *term.Term
	}
	var items []item
	for _, ax := range sp.Own {
		if _, ok := ctxs[ax.LHS.Sort]; !ok {
			ctxs[ax.LHS.Sort] = h.g.ObserverContexts(ax.LHS.Sort, extra, obsDepth)
		}
		for _, inst := range h.g.Instantiations(ax.LHS.Vars(), cfg.Depth, cfg.MaxInstancesPerAxiom) {
			sub := subst.Subst(inst)
			items = append(items, item{ax: ax, lhs: sub.Apply(ax.LHS), rhs: sub.Apply(ax.RHS)})
		}
	}

	type outcome struct {
		failure *Failure
		fatal   error
	}
	outcomes := make([]outcome, len(items))
	par.ForEach(len(items), cfg.Workers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			it := items[i]
			lv, err := h.eval(it.lhs, nil)
			if err != nil {
				outcomes[i] = outcome{fatal: fmt.Errorf("axiom [%s] lhs %s: %w", it.ax.Label, it.lhs, err)}
				continue
			}
			rv, err := h.eval(it.rhs, nil)
			if err != nil {
				outcomes[i] = outcome{fatal: fmt.Errorf("axiom [%s] rhs %s: %w", it.ax.Label, it.rhs, err)}
				continue
			}
			f, err := h.judge(it.ax, it.lhs, lv, rv, ctxs[it.ax.LHS.Sort])
			if err != nil {
				outcomes[i] = outcome{fatal: fmt.Errorf("axiom [%s] compare: %w", it.ax.Label, err)}
				continue
			}
			outcomes[i] = outcome{failure: f}
		}
	})

	for i := range outcomes {
		r.Checked++
		if outcomes[i].fatal != nil {
			r.Errors = append(r.Errors, outcomes[i].fatal)
			return r
		}
		if outcomes[i].failure != nil {
			r.Failures = append(r.Failures, *outcomes[i].failure)
		}
	}
	return r
}

// CheckAgainstSpec compares the implementation with the symbolic
// interpretation on every ground observer term up to the depth bound:
// for each operation with an observable (reifiable) range, the term's
// rewrite normal form must equal the reified implementation value.
// Observer terms are sharded across workers (each normalizing through a
// forked rewrite system) and outcomes merged in term order; merging stops
// at the first adapter error, reproducing the sequential early-return
// report for any worker count.
func CheckAgainstSpec(sp *spec.Spec, impl *Impl, cfg Config) *Report {
	cfg.fill()
	r := &Report{Spec: sp.Name}
	h := &Harness{sp: sp, impl: impl, g: gen.New(sp, gen.Config{})}
	base := rewrite.New(sp)

	var items []*term.Term
	for _, op := range sp.Observers() {
		items = append(items, h.g.Applications(op, cfg.Depth, cfg.MaxInstancesPerAxiom)...)
	}

	// Symbolic side first: one batched normalization over all observer
	// terms (forked workers inside NormalizeAll), then the parallel loop
	// below only runs the implementation adapter.
	nfs, nfErrs := base.NormalizeAll(items, cfg.Workers)

	type outcome struct {
		failure *Failure
		soft    error // normalization failure: recorded, then move on
		fatal   error // adapter failure: abort the merge
	}
	outcomes := make([]outcome, len(items))
	par.ForEach(len(items), cfg.Workers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			t := items[i]
			if nfErrs != nil && nfErrs[i] != nil {
				outcomes[i] = outcome{soft: fmt.Errorf("%s: %w", t, nfErrs[i])}
				continue
			}
			obs, err := h.observe(t, nil)
			if err != nil {
				outcomes[i] = outcome{fatal: fmt.Errorf("%s: %w", t, err)}
				continue
			}
			got, want := obs.String(), nfs[i].String()
			if got != want {
				outcomes[i] = outcome{failure: &Failure{Instance: t, Want: want, Got: got}}
			}
		}
	})

	for i := range outcomes {
		r.Checked++
		o := outcomes[i]
		if o.soft != nil {
			r.Errors = append(r.Errors, o.soft)
			continue
		}
		if o.fatal != nil {
			r.Errors = append(r.Errors, o.fatal)
			return r
		}
		if o.failure != nil {
			r.Failures = append(r.Failures, *o.failure)
		}
	}
	return r
}
