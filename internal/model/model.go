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
//     finite model). Values of hidden sorts are compared observationally.
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

// Observational comparison of hidden-sort values: obsDepth bounds how many
// operations may be stacked on top of the compared values, and obsFill
// the depth of the ground terms filling an observer context's other
// argument positions.
const (
	obsDepth = 2
	obsFill  = 2
)

// Failure records one failed axiom instance or disagreement.
type Failure struct {
	Axiom    string
	Instance *term.Term // LHS instance (or the observed term)
	Want     string
	Got      string
}

func (f Failure) String() string {
	if f.Axiom != "" {
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

// harness evaluates terms in the implementation.
type harness struct {
	sp   *spec.Spec
	impl *Impl
	g    *gen.Generator
}

// Harness is the exported face of the evaluator the checks run on: it
// evaluates ground terms through an implementation with the paper's
// error strictness and lazy conditional. The conformance subsystem
// (internal/conform, driverkit) reuses it so a driver, a wire session
// and the model checker all agree on semantics.
type Harness struct {
	h *harness
}

// NewHarness builds a harness over the implementation.
func NewHarness(sp *spec.Spec, impl *Impl) *Harness {
	return &Harness{h: &harness{sp: sp, impl: impl}}
}

// Eval evaluates a ground term through the implementation (lazy if,
// strict error). The error return means the adapter itself misbehaved,
// not a domain error — those come back as ErrValue.
func (h *Harness) Eval(t *term.Term) (Value, error) { return h.h.Eval(t) }

// errStop aborts a check when the implementation adapter itself fails.
var errStop = errors.New("model: implementation adapter error")

// Eval evaluates a ground term through the implementation. Conditionals
// are lazy; error is strict.
func (h *harness) Eval(t *term.Term) (Value, error) {
	switch t.Kind {
	case term.Err:
		return ErrValue, nil
	case term.Atom:
		return h.impl.Atom(t.Sort, t.Sym)
	case term.Var:
		return nil, fmt.Errorf("%w: free variable %s in ground evaluation", errStop, t.Sym)
	}
	if t.IsIf() {
		cond, err := h.Eval(t.Args[0])
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
			return h.Eval(t.Args[1])
		}
		return h.Eval(t.Args[2])
	}
	args := make([]Value, len(t.Args))
	for i, a := range t.Args {
		v, err := h.Eval(a)
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

func (h *harness) reifyBool(v Value) (bool, error) {
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

// equal compares two implementation values at a sort: reified comparison
// for observable sorts, observational comparison for hidden sorts.
func (h *harness) equal(so sig.Sort, a, b Value, depth int) (bool, error) {
	if IsErr(a) || IsErr(b) {
		return IsErr(a) && IsErr(b), nil
	}
	ta, oka, err := h.impl.Reify(so, a)
	if err != nil {
		return false, err
	}
	tb, okb, err := h.impl.Reify(so, b)
	if err != nil {
		return false, err
	}
	if oka != okb {
		return false, fmt.Errorf("%w: sort %s reifiable for one value but not the other", errStop, so)
	}
	if oka {
		return ta.Equal(tb), nil
	}
	if depth <= 0 {
		// Out of observation budget: optimistically equal. A larger
		// obsDepth would discriminate more.
		return true, nil
	}
	// Observational equality: every observer context must agree.
	for _, op := range h.sp.Sig.OpsTaking(so) {
		for pos, d := range op.Domain {
			if d != so {
				continue
			}
			fills, feasible := h.contextFills(op, pos)
			if !feasible {
				continue
			}
			for _, fill := range fills {
				ra, err := h.applyContext(op, pos, a, fill)
				if err != nil {
					return false, err
				}
				rb, err := h.applyContext(op, pos, b, fill)
				if err != nil {
					return false, err
				}
				eq, err := h.equal(op.Range, ra, rb, depth-1)
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

// contextFills enumerates value tuples for the non-hole arguments of an
// observer context.
func (h *harness) contextFills(op *sig.Operation, hole int) ([][]Value, bool) {
	choices := make([][]Value, len(op.Domain))
	for i, d := range op.Domain {
		if i == hole {
			continue
		}
		terms := h.g.Enumerate(d, obsFill)
		if len(terms) == 0 {
			return nil, false
		}
		vals := make([]Value, 0, len(terms))
		for _, t := range terms {
			v, err := h.Eval(t)
			if err != nil || IsErr(v) {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return nil, false
		}
		choices[i] = vals
	}
	// Cartesian product, capped to keep observation tractable.
	const maxFills = 64
	fills := [][]Value{make([]Value, len(op.Domain))}
	for i := range op.Domain {
		if i == hole {
			continue
		}
		var next [][]Value
		for _, f := range fills {
			for _, v := range choices[i] {
				nf := make([]Value, len(f))
				copy(nf, f)
				nf[i] = v
				next = append(next, nf)
				if len(next) >= maxFills {
					break
				}
			}
			if len(next) >= maxFills {
				break
			}
		}
		fills = next
	}
	return fills, true
}

func (h *harness) applyContext(op *sig.Operation, hole int, v Value, fill []Value) (Value, error) {
	args := make([]Value, len(op.Domain))
	copy(args, fill)
	args[hole] = v
	return h.impl.Apply(op.Name, args)
}

// CheckAxioms verifies every own axiom of the spec on the implementation.
// Instances are sharded across workers and outcomes merged in instance
// order; merging stops at the first adapter error, reproducing the
// sequential early-return report for any worker count.
func CheckAxioms(sp *spec.Spec, impl *Impl, cfg Config) *Report {
	cfg.fill()
	r := &Report{Spec: sp.Name}
	h := &harness{sp: sp, impl: impl, g: gen.New(sp, gen.Config{})}

	type item struct {
		ax       *spec.Axiom
		lhs, rhs *term.Term
	}
	var items []item
	for _, ax := range sp.Own {
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
			lv, err := h.Eval(it.lhs)
			if err != nil {
				outcomes[i] = outcome{fatal: fmt.Errorf("axiom [%s] lhs %s: %w", it.ax.Label, it.lhs, err)}
				continue
			}
			rv, err := h.Eval(it.rhs)
			if err != nil {
				outcomes[i] = outcome{fatal: fmt.Errorf("axiom [%s] rhs %s: %w", it.ax.Label, it.rhs, err)}
				continue
			}
			eq, err := h.equal(it.ax.LHS.Sort, lv, rv, obsDepth)
			if err != nil {
				outcomes[i] = outcome{fatal: fmt.Errorf("axiom [%s] compare: %w", it.ax.Label, err)}
				continue
			}
			if !eq {
				outcomes[i] = outcome{failure: &Failure{
					Axiom:    it.ax.Label,
					Instance: it.lhs,
					Want:     fmt.Sprint(rv),
					Got:      fmt.Sprint(lv),
				}}
			}
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
	h := &harness{sp: sp, impl: impl, g: gen.New(sp, gen.Config{})}
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
			nf := nfs[i]
			iv, err := h.Eval(t)
			if err != nil {
				outcomes[i] = outcome{fatal: fmt.Errorf("%s: %w", t, err)}
				continue
			}
			var got string
			switch {
			case IsErr(iv):
				got = term.ErrName
			default:
				rt, ok, err := impl.Reify(t.Sort, iv)
				if err != nil {
					outcomes[i] = outcome{fatal: fmt.Errorf("%s: %w", t, err)}
					continue
				}
				if !ok {
					outcomes[i] = outcome{fatal: fmt.Errorf("%s: range %s not reifiable", t, t.Sort)}
					continue
				}
				got = rt.String()
			}
			want := nf.String()
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
