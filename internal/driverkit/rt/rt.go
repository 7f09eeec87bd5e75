// Conformance driver runtime. This file is part of the driver package
// `adt gen-driver` emits: it is embedded verbatim (with the package
// clause rewritten), so it must stay self-contained — standard library
// only, no imports from the generating module. Inside the algspec
// module the same file compiles as internal/driverkit/rt, which is how
// the generator's own tests prove the emitted runtime behaves exactly
// like the in-process one: they are the same code.
//
// The runtime evaluates baked ground probe programs through an
// implementation adapter with the specification's semantics — the
// conditional is lazy, the distinguished error is strict — and judges
// two kinds of conformance pairs:
//
//   - axiom pairs: both sides of an instantiated axiom, lifted into an
//     observable context; a conforming implementation must evaluate
//     them to equal values (the axioms ARE the oracle — no engine is
//     consulted at run time);
//   - observation pairs: a ground observer probe against its engine
//     normal form, baked at generation time as a constructor tree and
//     itself evaluated through the implementation, so the comparison
//     happens in the implementation's own value universe.
//
// On failure the runtime shrinks: for axiom pairs it greedily shrinks
// the baked variable assignment (minimal term of the sort, or a
// smaller same-sort subterm) and re-substitutes both sides, accepting
// any strictly smaller instance that still disagrees — the same move
// set the algspec property harness uses. The reported counterexample
// is the smallest disagreement found.
package rt

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Value is an opaque implementation value.
type Value = any

type errValue struct{}

func (errValue) String() string { return "error" }

// Err is the distinguished error value. Implementations return it for
// boundary conditions (FRONT(NEW), POP(NEWSTACK), ...); the runtime
// propagates it strictly through every operation except the lazy
// conditional.
var Err Value = errValue{}

// IsErr reports whether a value is the distinguished error.
func IsErr(v Value) bool {
	_, ok := v.(errValue)
	return ok
}

// Impl is the evaluation interface the runtime drives. The generated
// Adapter satisfies it by dispatching to the typed API interface; a
// non-nil error from either method means the adapter itself misbehaved
// (an infrastructure failure), not a domain error — those are
// signalled by returning Err.
type Impl interface {
	// Apply evaluates one operation. Arguments never include Err (the
	// runtime short-circuits) and never include conditionals.
	Apply(op string, args []Value) (Value, error)
	// Atom injects an atom literal of an atom or parameter sort.
	Atom(sort, spelling string) (Value, error)
}

// Tree is a ground probe program (or a template with variable leaves,
// in shrinkable instances): an explicit syntax tree, so the runtime
// needs no parser. The conditional is the operation "if" with three
// arguments and lazy semantics.
type Tree struct {
	// Kind is "op", "atom", "error" or "var".
	Kind string
	// Sym is the operation name, atom spelling or variable name.
	Sym string
	// Sort is the node's sort as declared in the specification.
	Sort string
	Args []*Tree
}

// Op, At, Er and Vr are compact constructors of trees. The baked suite
// is written as Tree literals instead, which compile to static data.
func Op(sym, sort string, args ...*Tree) *Tree {
	return &Tree{Kind: "op", Sym: sym, Sort: sort, Args: args}
}
func At(sym, sort string) *Tree { return &Tree{Kind: "atom", Sym: sym, Sort: sort} }
func Er(sort string) *Tree      { return &Tree{Kind: "error", Sort: sort} }
func Vr(sym, sort string) *Tree { return &Tree{Kind: "var", Sym: sym, Sort: sort} }

// String renders the tree in the specification surface syntax.
func (t *Tree) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Tree) write(b *strings.Builder) {
	switch t.Kind {
	case "error":
		b.WriteString("error")
	case "atom":
		b.WriteByte('\'')
		b.WriteString(t.Sym)
	case "var":
		b.WriteString(t.Sym)
	default:
		if t.Sym == "if" && len(t.Args) == 3 {
			b.WriteString("if ")
			t.Args[0].write(b)
			b.WriteString(" then ")
			t.Args[1].write(b)
			b.WriteString(" else ")
			t.Args[2].write(b)
			return
		}
		b.WriteString(t.Sym)
		if len(t.Args) == 0 {
			return
		}
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.write(b)
		}
		b.WriteByte(')')
	}
}

// Size counts the tree's nodes (the shrinker's notion of smaller).
func (t *Tree) Size() int {
	n := 1
	for _, a := range t.Args {
		n += a.Size()
	}
	return n
}

// subst returns the tree with variable leaves replaced per the
// assignment; unbound variables are kept (and later fail evaluation).
func (t *Tree) subst(asn map[string]*Tree) *Tree {
	switch t.Kind {
	case "var":
		if b, ok := asn[t.Sym]; ok {
			return b
		}
		return t
	case "atom", "error":
		return t
	default:
		args := make([]*Tree, len(t.Args))
		for i, a := range t.Args {
			args[i] = a.subst(asn)
		}
		return &Tree{Kind: t.Kind, Sym: t.Sym, Sort: t.Sort, Args: args}
	}
}

// subtrees appends every node of the tree to out.
func (t *Tree) subtrees(out []*Tree) []*Tree {
	out = append(out, t)
	for _, a := range t.Args {
		out = a.subtrees(out)
	}
	return out
}

// Pair is one conformance check: evaluate both trees through the
// implementation and require agreement (both the distinguished error,
// or deeply equal values).
type Pair struct {
	ID int
	// Axiom labels the instantiated axiom the pair derives from; "" for
	// observation pairs (B is then the baked engine normal form).
	Axiom string
	A, B  *Tree
	// Inst indexes the shrinkable instance behind an axiom pair
	// (-1 when the pair is not shrinkable).
	Inst int
}

// Instance is the shrinkable origin of an axiom pair: the two side
// templates (variable leaves free) and the ground assignment that
// produced it. Shrinking perturbs the assignment and re-substitutes.
type Instance struct {
	Axiom    string
	LHS, RHS *Tree
	// Asn assigns a ground tree to every variable in the templates.
	Asn map[string]*Tree
}

// Suite is a baked conformance suite for one specification.
type Suite struct {
	// Spec names the specification; Seed is the generation seed
	// (re-run `adt gen-driver` with -seed to reproduce the batch).
	Spec string
	Seed int64
	// Pairs are the checks, each axiom's minimal instance first.
	Pairs []*Pair
	// Insts backs the shrinker for axiom pairs.
	Insts []*Instance
	// Min holds the minimal ground tree per sort (shrink candidates).
	Min map[string]*Tree
	// MaxShrink bounds the shrink candidates tried on a failure.
	MaxShrink int
}

// Failure is one pair whose sides disagreed.
type Failure struct {
	Axiom string
	// Program and Expect are the two probe programs; Got and Want the
	// implementation values they evaluated to.
	Program, Expect string
	Got, Want       string
}

func (f Failure) String() string {
	label := ""
	if f.Axiom != "" {
		label = fmt.Sprintf(" (from axiom [%s])", f.Axiom)
	}
	return fmt.Sprintf("%s = %s%s: got %s, want %s", f.Program, f.Expect, label, f.Got, f.Want)
}

// Result is the outcome of a suite run.
type Result struct {
	Pass    bool
	Checked int
	// FailureCount is exact; Failures records the first few.
	FailureCount int
	Failures     []Failure
	// Counterexample is the smallest disagreement found after
	// shrinking (nil on pass).
	Counterexample *Failure
	// ShrinkSteps counts accepted shrink replacements.
	ShrinkSteps int
}

func (r *Result) String() string {
	if r.Pass {
		return fmt.Sprintf("conformance: PASS (%d pair(s) checked)", r.Checked)
	}
	return fmt.Sprintf("conformance: FAIL (%d of %d pair(s) disagree; minimal counterexample: %s)",
		r.FailureCount, r.Checked, r.Counterexample)
}

// maxRecordedFailures caps the failures echoed in a result; the count
// stays exact.
const maxRecordedFailures = 8

// evaluator evaluates trees through the implementation with lazy
// conditionals and strict error propagation, deciding conditions by
// comparison with the implementation's own true/false values.
type evaluator struct {
	impl         Impl
	vTrue, vBool Value
}

func newEvaluator(impl Impl) (*evaluator, error) {
	vt, err := impl.Apply("true", nil)
	if err != nil {
		return nil, fmt.Errorf("rt: evaluating true: %w", err)
	}
	vf, err := impl.Apply("false", nil)
	if err != nil {
		return nil, fmt.Errorf("rt: evaluating false: %w", err)
	}
	if reflect.DeepEqual(vt, vf) {
		return nil, fmt.Errorf("rt: implementation's true and false coincide (%v)", vt)
	}
	return &evaluator{impl: impl, vTrue: vt, vBool: vf}, nil
}

func (e *evaluator) eval(t *Tree) (Value, error) {
	switch t.Kind {
	case "error":
		return Err, nil
	case "atom":
		return e.impl.Atom(t.Sort, t.Sym)
	case "var":
		return nil, fmt.Errorf("rt: free variable %s in ground evaluation", t.Sym)
	}
	if t.Sym == "if" && len(t.Args) == 3 {
		cond, err := e.eval(t.Args[0])
		if err != nil {
			return nil, err
		}
		switch {
		case IsErr(cond):
			return Err, nil
		case reflect.DeepEqual(cond, e.vTrue):
			return e.eval(t.Args[1])
		case reflect.DeepEqual(cond, e.vBool):
			return e.eval(t.Args[2])
		default:
			return nil, fmt.Errorf("rt: condition %s evaluated to non-boolean %v", t.Args[0], cond)
		}
	}
	args := make([]Value, len(t.Args))
	for i, a := range t.Args {
		v, err := e.eval(a)
		if err != nil {
			return nil, err
		}
		if IsErr(v) {
			return Err, nil // strictness
		}
		args[i] = v
	}
	return e.impl.Apply(t.Sym, args)
}

// agree evaluates both sides of a pair and reports agreement.
func (e *evaluator) agree(p *Pair) (ok bool, got, want Value, err error) {
	got, err = e.eval(p.A)
	if err != nil {
		return false, nil, nil, fmt.Errorf("rt: evaluating %s: %w", p.A, err)
	}
	want, err = e.eval(p.B)
	if err != nil {
		return false, nil, nil, fmt.Errorf("rt: evaluating %s: %w", p.B, err)
	}
	return valuesEqual(got, want), got, want, nil
}

func valuesEqual(a, b Value) bool {
	if IsErr(a) || IsErr(b) {
		return IsErr(a) && IsErr(b)
	}
	return reflect.DeepEqual(a, b)
}

func render(v Value) string { return fmt.Sprintf("%v", v) }

func failureOf(p *Pair, got, want Value) Failure {
	return Failure{
		Axiom:   p.Axiom,
		Program: p.A.String(),
		Expect:  p.B.String(),
		Got:     render(got),
		Want:    render(want),
	}
}

// Run drives the whole suite through the implementation. The error
// return covers infrastructure failures only (a misbehaving adapter);
// specification disagreements land in the Result.
func Run(s *Suite, impl Impl) (*Result, error) {
	if len(s.Pairs) == 0 {
		// An atoms-only spec has nothing to check (and possibly no Bool
		// operations to bootstrap the evaluator with).
		return &Result{Pass: true}, nil
	}
	e, err := newEvaluator(impl)
	if err != nil {
		return nil, err
	}
	r := &Result{}
	var best *Pair
	var bestFail Failure
	for _, p := range s.Pairs {
		ok, got, want, err := e.agree(p)
		if err != nil {
			return nil, err
		}
		r.Checked++
		if ok {
			continue
		}
		r.FailureCount++
		f := failureOf(p, got, want)
		if len(r.Failures) < maxRecordedFailures {
			r.Failures = append(r.Failures, f)
		}
		if best == nil || smaller(p, best) {
			best, bestFail = p, f
		}
	}
	if best == nil {
		r.Pass = true
		return r, nil
	}
	ce := bestFail
	if best.Inst >= 0 && best.Inst < len(s.Insts) {
		shrunk, steps, err := e.shrink(s, s.Insts[best.Inst])
		if err != nil {
			return nil, err
		}
		r.ShrinkSteps = steps
		if shrunk != nil && shrunk.A.Size() < best.A.Size() {
			ok, got, want, err := e.agree(shrunk)
			if err != nil {
				return nil, err
			}
			if !ok {
				ce = failureOf(shrunk, got, want)
			}
		}
	}
	r.Counterexample = &ce
	return r, nil
}

func smaller(p, than *Pair) bool {
	ps, ts := p.A.Size(), than.A.Size()
	if ps != ts {
		return ps < ts
	}
	return p.A.String() < than.A.String()
}

// shrink greedily minimizes a failing instance's assignment: replace
// one variable's binding with the minimal tree of its sort or with a
// strictly smaller same-sort subterm of the current binding, keep any
// replacement under which the two sides still disagree, and iterate to
// a fixpoint (or until the candidate budget runs out). The result is
// the shrunk pair, or nil if nothing improved.
func (e *evaluator) shrink(s *Suite, inst *Instance) (*Pair, int, error) {
	budget := s.MaxShrink
	if budget <= 0 {
		budget = 64
	}
	cur := make(map[string]*Tree, len(inst.Asn))
	vars := make([]string, 0, len(inst.Asn))
	for v, t := range inst.Asn {
		cur[v] = t
		vars = append(vars, v)
	}
	sort.Strings(vars)

	steps := 0
	for changed := true; changed && budget > 0; {
		changed = false
		for _, v := range vars {
			bound := cur[v]
			var cands []*Tree
			if min, ok := s.Min[bound.Sort]; ok && min.Size() < bound.Size() {
				cands = append(cands, min)
			}
			for _, sub := range bound.subtrees(nil) {
				if sub != bound && sub.Sort == bound.Sort && sub.Size() < bound.Size() {
					cands = append(cands, sub)
				}
			}
			sort.SliceStable(cands, func(i, j int) bool {
				if cands[i].Size() != cands[j].Size() {
					return cands[i].Size() < cands[j].Size()
				}
				return cands[i].String() < cands[j].String()
			})
			for _, c := range cands {
				if budget <= 0 {
					break
				}
				budget--
				trial := make(map[string]*Tree, len(cur))
				for k, t := range cur {
					trial[k] = t
				}
				trial[v] = c
				p := &Pair{Axiom: inst.Axiom, A: inst.LHS.subst(trial), B: inst.RHS.subst(trial), Inst: -1}
				ok, _, _, err := e.agree(p)
				if err != nil {
					// A shrink candidate the adapter cannot evaluate is
					// skipped, not fatal: the original failure stands.
					continue
				}
				if !ok {
					cur = trial
					steps++
					changed = true
					break
				}
			}
		}
	}
	if steps == 0 {
		return nil, 0, nil
	}
	return &Pair{Axiom: inst.Axiom, A: inst.LHS.subst(cur), B: inst.RHS.subst(cur), Inst: -1}, steps, nil
}
