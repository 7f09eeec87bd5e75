// Package rewrite implements the operational reading of an algebraic
// specification: each axiom lhs = rhs is used as a rewrite rule from left
// to right, giving the "symbolic interpretation" of the algebra that §5 of
// the paper proposes as a stand-in for an implementation.
//
// The engine implements the paper's fixed semantics for the two built-in
// forms:
//
//   - error is strict: any operation applied to an argument list
//     containing error yields error (f(x1,...,error,...,xn) = error);
//   - if-then-else is lazy in its branches: the condition is normalized
//     first, then exactly one branch; an error condition yields error.
//
// Operations declared native are evaluated by Go functions the engine
// supplies from the signature: a native whose name contains "same" or
// "eq" is atom equality, covering the paper's independently defined
// IS_SAME? on type Identifier.
//
// A System separates the immutable compiled form of a specification (rule
// list, head-symbol index, shared term interner) from mutable evaluation
// state (fuel accounting, statistics). Fork creates a sibling System
// over the same compiled form in O(1)ish time; parallel checker drivers
// fork one System per worker because the mutable state must not be
// shared between goroutines.
package rewrite

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"algspec/internal/spec"
	"algspec/internal/subst"
	"algspec/internal/term"
)

// Strategy selects the redex-selection order.
type Strategy int

const (
	// Innermost normalizes arguments before trying rules at the root
	// (call-by-value). It is the default and by far the faster strategy
	// on the paper's specs.
	Innermost Strategy = iota
	// Outermost tries rules at the root first and only then descends.
	// It exists to cross-check confluence in the consistency checker.
	Outermost
)

func (s Strategy) String() string {
	switch s {
	case Innermost:
		return "innermost"
	case Outermost:
		return "outermost"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Rule is one oriented rewrite rule.
type Rule struct {
	Label string
	Owner string
	LHS   *term.Term
	RHS   *term.Term
}

func (r Rule) String() string { return fmt.Sprintf("[%s] %s -> %s", r.Label, r.LHS, r.RHS) }

// NativeFunc evaluates a native operation on normalized arguments. It
// returns the result and true, or nil and false when the operation does
// not apply (e.g. arguments are not yet atoms), in which case the term is
// left as is (a normal form).
type NativeFunc func(args []*term.Term) (*term.Term, bool)

// ErrFuel is returned (wrapped) when normalization exceeds the step limit,
// which in practice means a non-terminating axiom set.
type ErrFuel struct {
	Steps int
	Last  *term.Term
}

func (e *ErrFuel) Error() string {
	return fmt.Sprintf("rewrite: no normal form after %d steps (stuck near %s); the axiom set is likely non-terminating", e.Steps, clip(e.Last))
}

func clip(t *term.Term) string {
	s := t.String()
	if len(s) <= 120 {
		return s
	}
	// Truncate on a rune boundary so an atom spelled in a multi-byte
	// script is never split mid-sequence.
	cut := 117
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "..."
}

// ErrCanceled is returned (wrapped) when a normalization is abandoned
// because the context installed with WithContext ended — in the server,
// because the request's deadline expired or its client went away.
// Distinguish it from ErrFuel: fuel exhaustion is a property of the term
// and axioms (422), cancellation a property of the caller's patience
// (504).
var ErrCanceled = errors.New("rewrite: normalization canceled")

// stopCheckMask bounds how stale a cancellation can be: the context is
// polled every time the step counter crosses a multiple of mask+1, so an
// ended context is noticed within 1024 reductions (well under a
// millisecond) without putting a context check on every step.
const stopCheckMask = 1<<10 - 1

// TraceStep records one rule application for the CLI's trace subcommand.
type TraceStep struct {
	Rule   Rule
	Before *term.Term
	After  *term.Term
}

// Stats counts the work a System has performed since it was created,
// forked, or last reset. Steps is the fuel counter (every rule fire,
// native call and if/error reduction); the remaining counters break the
// total down for the CLI's --stats report and the benchmarks.
type Stats struct {
	// Steps is the total number of reductions (rule applications, native
	// evaluations and if/error special-form reductions).
	Steps int
	// RuleFires counts axiom applications.
	RuleFires int
	// NativeCalls counts native (Go-implemented) operation evaluations.
	NativeCalls int
	// CompiledEvals counts outermost Normalize calls served by the
	// compiled machine tier; InterpEvals counts the ones served by the
	// MatchBind interpreter (trace, outermost strategy, or ablation).
	CompiledEvals int
	InterpEvals   int
}

// Add returns the component-wise sum of two Stats (used by parallel
// drivers to merge per-worker counters deterministically).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Steps:         s.Steps + o.Steps,
		RuleFires:     s.RuleFires + o.RuleFires,
		NativeCalls:   s.NativeCalls + o.NativeCalls,
		CompiledEvals: s.CompiledEvals + o.CompiledEvals,
		InterpEvals:   s.InterpEvals + o.InterpEvals,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("steps=%d rule-fires=%d native-calls=%d compiled-evals=%d interp-evals=%d",
		s.Steps, s.RuleFires, s.NativeCalls, s.CompiledEvals, s.InterpEvals)
}

// Option configures a System.
type Option func(*System)

// WithStrategy selects the evaluation strategy.
func WithStrategy(s Strategy) Option { return func(sys *System) { sys.strategy = s } }

// WithMaxSteps sets the fuel limit (default 1<<20 rule applications).
func WithMaxSteps(n int) Option { return func(sys *System) { sys.maxSteps = n } }

// WithTrace installs a step listener. Tracing has a cost; leave nil in
// benchmarks.
func WithTrace(f func(TraceStep)) Option { return func(sys *System) { sys.trace = f } }

// WithoutCompiledTier disables the machine tier (flat match/build
// programs over arena scratch terms), so evaluation runs on the
// interpreter: per-rule subst.MatchBind over the head-symbol index, the
// reference semantics the machine is tested against. Exists for the
// ablation benchmarks and as one half of the compiled-vs-interpreted
// differential tests.
func WithoutCompiledTier() Option { return func(sys *System) { sys.noCompiled = true } }

// WithContext makes normalization stop when ctx ends: the next poll
// (every 1024 steps) abandons the normalization with an error wrapping
// ErrCanceled. The serve subsystem installs each request's context, so
// a request whose deadline passes or whose client hangs up frees its
// slot instead of burning its full fuel.
func WithContext(ctx context.Context) Option {
	return func(sys *System) { sys.ctx = ctx }
}

// WithFault installs a fault hook polled once per reduction, right
// after the step is charged: a non-nil error abandons the normalization
// with that error. It exists for deterministic fault injection — the
// serve layer threads internal/faultinject points through it to force
// ErrFuel (422) and ErrCanceled (504) outcomes on demand — and is the
// injection twin of WithContext. An *ErrFuel returned with a nil Last is
// completed by the engine with the actual step count and current term,
// so an injected fuel error is indistinguishable from a real one.
// Forks do not inherit the hook (like the context, it belongs to one
// caller). The hook runs on the engine goroutine; it must not block.
func WithFault(hook func() error) Option {
	return func(sys *System) { sys.fault = hook }
}

// program is the immutable compiled form of a specification, shared by
// every System forked from the same New call.
type program struct {
	sp    *spec.Spec
	rules []Rule
	index map[string][]int // head symbol -> rule indices, in priority order
	// mach is the machine tier: flat register-addressed match programs
	// and arena-targeted build programs (machine.go).
	mach *machine
	// disp maps a head symbol to its native — the Go function
	// defaultNative supplies for an operation the signature declares
	// native — and its machine match program, so the machine pays a
	// single string hash per redex. dispID is the dense copy indexed by
	// the machine's symbol ids (scratch-node hints), entry 0 the zero
	// dispatch. Both are built once, in New; every fork only reads them.
	disp   map[string]dispatch
	dispID []dispatch
}

// System is a compiled rewrite system for one specification. A System is
// stateful (fuel accounting, statistics) and therefore NOT
// safe for concurrent use; call Fork to get an independent sibling over
// the same compiled rules for each goroutine.
type System struct {
	prog       *program
	strategy   Strategy
	maxSteps   int
	noCompiled bool
	trace      func(TraceStep)

	intern *term.Interner
	// ctx, when non-nil, is polled every stopCheckMask+1 steps; once it
	// has ended the normalization is abandoned with ErrCanceled. Set per
	// request via WithContext; Fork deliberately does not inherit it (a
	// fork serves a different caller with a different deadline).
	ctx context.Context
	// fault, when non-nil, is consulted once per spend; a non-nil error
	// abandons the normalization. Set via WithFault; like ctx, Fork does
	// not inherit it.
	fault func() error

	// gen is this system's normal-form token: terms the system has proven
	// to be their own normal form are stamped with it (term.MarkNormalTag).
	// The compiled program is immutable and terms are never mutated, so
	// normality is permanent for the lifetime of a System; callers that
	// re-embed returned normal forms in bigger terms (every checker and
	// the E1 workload do) then skip the quadratic re-traversal of the
	// shared spine in O(1). Skipping redex-free subterms performs no
	// reductions, so Stats and traces are unaffected. Tokens are unique
	// per System (Fork takes a fresh one: the strategy may differ), so a
	// term stamped by another system simply misses.
	gen uint32

	stats Stats
	// bindBuf is the interpreter's reusable MatchBind binding buffer.
	bindBuf subst.Bindings
	// useCompiled, resolved by resolveTier, routes the Eval seam: true
	// selects the machine tier, false the interpreter.
	useCompiled bool
	plainSpend  bool
	// scratchSet is the machine tier's working memory, borrowed from the
	// process-wide free list (scratch.go) for the length of a call and
	// zero between calls. regTop is the register stack's top: each rule
	// fire carves a frame there and bumps it while the frame's captures
	// are live, so nested matches run above them.
	scratchSet
	regTop int
	// budget is the step count at which the current Normalize call runs
	// out of fuel: its entry count plus maxSteps.
	budget int
}

// New compiles a specification into a rewrite system. Axioms inherited
// from used specifications participate with lower priority than the
// spec's own axioms (they come first in spec.All, and rule order within a
// head symbol follows spec.All order, so earlier axioms win — matching
// the paper's practice of listing the general case after the specific).
func New(sp *spec.Spec, opts ...Option) *System {
	sys := &System{
		maxSteps: 1 << 20,
		intern:   term.NewInterner(),
	}
	for _, o := range opts {
		o(sys)
	}
	prog := &program{sp: sp, index: make(map[string][]int)}
	for _, a := range sp.All {
		// Rules are stored hash-consed: the machine's build constants are
		// the rules' own RHS nodes, so results that reuse them are already
		// canonical at the Canon boundary.
		prog.rules = append(prog.rules, Rule{
			Label: a.Label,
			Owner: a.Owner,
			LHS:   sys.intern.Canon(a.LHS),
			RHS:   sys.intern.Canon(a.RHS),
		})
	}
	for i, r := range prog.rules {
		prog.index[r.LHS.Sym] = append(prog.index[r.LHS.Sym], i)
	}
	prog.mach = compileMachine(prog.rules)
	prog.disp = make(map[string]dispatch, len(prog.mach.progs))
	for sym, mp := range prog.mach.progs {
		prog.disp[sym] = dispatch{mp: mp}
	}
	for _, op := range sp.Sig.Ops() {
		if !op.Native {
			continue
		}
		if f, ok := defaultNative(op.Name); ok {
			d := prog.disp[op.Name]
			d.native = f
			prog.disp[op.Name] = d
		}
	}
	prog.dispID = make([]dispatch, len(prog.mach.symID)+1)
	for sym, id := range prog.mach.symID {
		prog.dispID[id] = prog.disp[sym]
	}
	sys.prog = prog
	sys.resolveTier()
	return sys
}

// dispatch is the per-head-symbol entry of the merged hot-path table.
type dispatch struct {
	native NativeFunc
	mp     *matchProg
}

// resolveTier settles what the options decided, once they are applied
// (New and Fork): the normal-form token, the spend fast path and the
// tier. It allocates nothing: the machine tier's scratch is borrowed
// per normalization (Normalize, NormalizeAll).
func (s *System) resolveTier() {
	s.gen = genCounter.Add(1)
	s.plainSpend = s.ctx == nil && s.fault == nil
	// Tier selection: the machine serves the default configuration —
	// innermost strategy, no trace, compiled matching. Everything else
	// (tracing wants to see each step, outermost is a different strategy,
	// the ablation exists to measure the interpreter) runs on the
	// MatchBind interpreter behind the same Normalize seam.
	s.useCompiled = !s.noCompiled && s.trace == nil && s.strategy == Innermost
}

// Tier reports which evaluation tier this system's configuration
// resolved to: "compiled" (the machine tier) or "interp".
func (s *System) Tier() string {
	if s.useCompiled {
		return "compiled"
	}
	return "interp"
}

// genCounter allocates normal-form tokens; 0 is never issued, so the
// zero-valued tag on a fresh term can never match a live system.
var genCounter atomic.Uint32

// Fork returns an independent System over the same compiled rules, rule
// index, dispatch tables and interner, with fresh mutable state (zero
// Stats, no trace listener, context or fault hook). Options may adjust
// the fork, e.g. WithStrategy for a different evaluation order. Fork is
// how parallel checker drivers and serve's requests give each goroutine
// its own engine without recompiling the specification: it copies
// nothing the program owns and allocates only the System. Its scratch
// comes from the process-wide free list when it normalizes.
func (s *System) Fork(opts ...Option) *System {
	ns := &System{
		prog:       s.prog,
		strategy:   s.strategy,
		maxSteps:   s.maxSteps,
		noCompiled: s.noCompiled,
		intern:     s.intern,
	}
	for _, o := range opts {
		o(ns)
	}
	ns.resolveTier()
	return ns
}

// defaultNative supplies engine-level semantics for the conventional
// native operation names: a native whose name contains "same" or "eq"
// compares atoms (SameAtoms). Natives with any other name have no Go
// implementation and stay unevaluated, as normal forms.
func defaultNative(name string) (NativeFunc, bool) {
	lower := strings.ToLower(name)
	switch {
	case strings.Contains(lower, "same") || strings.Contains(lower, "eq"):
		return SameAtoms, true
	default:
		return nil, false
	}
}

// SameAtoms is the native equality on atoms: same?('x,'y) = false,
// same?('x,'x) = true. Non-atom arguments leave the term unevaluated.
func SameAtoms(args []*term.Term) (*term.Term, bool) {
	if len(args) != 2 {
		return nil, false
	}
	a, b := args[0], args[1]
	if a.Kind != term.Atom || b.Kind != term.Atom {
		return nil, false
	}
	return term.Bool(a.Sym == b.Sym && a.Sort == b.Sort), true
}

// Spec returns the specification the system was compiled from.
func (s *System) Spec() *spec.Spec { return s.prog.sp }

// Interner returns the interner this system hash-conses into (shared
// across Forks).
func (s *System) Interner() *term.Interner { return s.intern }

// Stats returns the work counters accumulated since the system was
// created, forked, or last reset.
func (s *System) Stats() Stats { return s.stats }

// Steps reports the number of reductions performed since the last
// ResetSteps. Native evaluations and if-reductions count as steps.
func (s *System) Steps() int { return s.stats.Steps }

// ResetSteps zeroes all work counters (Stats included).
func (s *System) ResetSteps() { s.stats = Stats{} }

// Normalize rewrites the term to normal form. Ground terms over a
// sufficiently complete, consistent specification reach a unique
// constructor normal form (or error). Terms containing variables are
// normalized symbolically: a redex whose arguments are not covered by any
// rule is left in place. The fuel limit applies per call: a long-lived
// System normalizes any number of terms, each with a fresh budget.
//
// Normalize is the Eval seam between the engine's tiers: every entry
// point (NormalizeAll, the checkers, axtest's drivers, serve's
// fork-per-request path) funnels through it, and the tier resolved at
// construction — machine or interpreter — is chosen here. On the
// machine tier the call borrows a scratch set unless the System already
// holds one (NormalizeAll holds one for a whole batch), and the
// returned normal form is interned (Canon) and stamped normal before the
// arena's scratch terms are recycled, so no engine-private term ever
// escapes.
func (s *System) Normalize(t *term.Term) (*term.Term, error) {
	s.budget = s.stats.Steps + s.maxSteps
	if s.useCompiled {
		s.stats.CompiledEvals++
		if s.arena != nil {
			return s.normalizeMachine(t)
		}
		s.borrowScratch()
		nf, err := s.normalizeMachine(t)
		s.returnScratch()
		return nf, err
	}
	s.stats.InterpEvals++
	if s.strategy == Outermost {
		return s.normalizeOutermost(t)
	}
	return s.normalizeInnermost(t)
}

// normalizeMachine is one machine-tier normalization over the scratch
// set the System holds.
func (s *System) normalizeMachine(t *term.Term) (*term.Term, error) {
	// An earlier call that failed left its frames on the stack.
	s.regTop = 0
	nf, err := s.normalizeCompiled(t)
	if err != nil {
		// The error value may reference scratch terms (ErrFuel.Last);
		// surrender the chunks instead of recycling them.
		s.arena.Detach()
		return nil, err
	}
	nf = s.intern.CanonBatch(nf, s.canonCache)
	stampNormal(nf, s.gen)
	s.arena.Reset()
	return nf, nil
}

// MustNormalize is Normalize for callers that treat failure as a bug.
func (s *System) MustNormalize(t *term.Term) *term.Term {
	out, err := s.Normalize(t)
	if err != nil {
		panic(err)
	}
	return out
}

// spend charges one reduction step. The fast path is branch-only and
// inlineable: no context, no fault injection, budget not exceeded.
func (s *System) spend(last *term.Term) error {
	s.stats.Steps++
	if s.plainSpend && s.stats.Steps <= s.budget {
		return nil
	}
	return s.spendSlow(last)
}

// spendSlow is spend's slow path. A nil last leaves the error's position
// for the caller to fill in with failAt: evalBuild's redexes are virtual,
// and it materializes one only once its step has failed.
func (s *System) spendSlow(last *term.Term) error {
	if s.ctx != nil && s.stats.Steps&stopCheckMask == 0 && s.ctx.Err() != nil {
		return s.failAt(ErrCanceled, last)
	}
	if s.fault != nil {
		if err := s.fault(); err != nil {
			return s.failAt(err, last)
		}
	}
	if s.stats.Steps > s.budget {
		return s.failAt(&ErrFuel{}, last)
	}
	return nil
}

// failAt completes a failed step's error with last, the term the step
// reduces. The engine's cancellation is the bare ErrCanceled only until
// its position is known, and is wrapped with it here. An ErrFuel without
// a position — the engine's own, or an injected one, which carries no
// engine state — gets last and the steps this outermost call actually
// spent (the budget was set to the step counter at entry plus
// maxSteps), so it reads like the genuine article to every caller.
func (s *System) failAt(err error, last *term.Term) error {
	if last == nil {
		return err
	}
	if err == ErrCanceled {
		return fmt.Errorf("%w near %s", ErrCanceled, clip(last))
	}
	var fe *ErrFuel
	if errors.As(err, &fe) && fe.Last == nil {
		fe.Steps = s.stats.Steps - (s.budget - s.maxSteps)
		fe.Last = last
	}
	return err
}

// normalizeInnermost is call-by-value evaluation with lazy if and strict
// error. A tail position — the term a root step rewrote to, or the taken
// branch of a decided if — continues the loop instead of recursing, so a
// rewrite chain of any length runs in one Go frame; arguments and
// conditions recurse only as deep as the term they belong to.
func (s *System) normalizeInnermost(t *term.Term) (*term.Term, error) {
	for {
		switch t.Kind {
		case term.Var, term.Atom, term.Err:
			return t, nil
		}
		if t.NormalTag() == s.gen {
			return t, nil
		}

		if t.IsIf() {
			cond, err := s.normalizeInnermost(t.Args[0])
			if err != nil {
				return nil, err
			}
			var next *term.Term
			switch {
			case cond.IsTrue():
				next = t.Args[1]
			case cond.IsFalse():
				next = t.Args[2]
			case !cond.IsErr():
				// Symbolic condition: normalize branches and keep the if.
				then, err := s.normalizeInnermost(t.Args[1])
				if err != nil {
					return nil, err
				}
				els, err := s.normalizeInnermost(t.Args[2])
				if err != nil {
					return nil, err
				}
				if cond == t.Args[0] && then == t.Args[1] && els == t.Args[2] {
					return t, nil
				}
				out := term.NewIf(cond, then, els)
				out.Sort = t.Sort
				return out, nil
			}
			if err := s.spend(t); err != nil {
				return nil, err
			}
			if next == nil {
				return term.NewErr(t.Sort), nil
			}
			t = next
			continue
		}

		// Normalize arguments first, copying the argument vector only when
		// some argument actually changed.
		var args []*term.Term
		for i, a := range t.Args {
			na, err := s.normalizeInnermost(a)
			if err != nil {
				return nil, err
			}
			if na.IsErr() {
				// Strictness: short-circuit the remaining arguments.
				if err := s.spend(t); err != nil {
					return nil, err
				}
				return term.NewErr(t.Sort), nil
			}
			if args == nil && na != a {
				args = make([]*term.Term, len(t.Args))
				copy(args, t.Args[:i])
			}
			if args != nil {
				args[i] = na
			}
		}
		cur := t
		if args != nil {
			cur = &term.Term{Kind: term.Op, Sym: t.Sym, Sort: t.Sort, Args: args}
		}

		red, ok, err := s.stepRoot(cur)
		if err != nil {
			return nil, err
		}
		if !ok {
			cur.MarkNormalTag(s.gen)
			return cur, nil
		}
		t = red
	}
}

// stepRoot tries native evaluation then rule matching at the root.
func (s *System) stepRoot(cur *term.Term) (*term.Term, bool, error) {
	if nf := s.prog.disp[cur.Sym].native; nf != nil {
		if out, applied := nf(cur.Args); applied {
			return s.fireNative(cur, out)
		}
	}
	return s.stepRootMatchBind(cur)
}

// fireNative accounts for one successful native evaluation.
func (s *System) fireNative(cur, out *term.Term) (*term.Term, bool, error) {
	if err := s.spend(cur); err != nil {
		return nil, false, err
	}
	s.stats.NativeCalls++
	if s.trace != nil {
		s.trace(TraceStep{Rule: Rule{Label: "native:" + cur.Sym}, Before: cur, After: out})
	}
	return out, true, nil
}

// stepRootMatchBind is the interpreter's matcher, the axioms read
// directly as rules: try each candidate rule in priority order with
// one-way structural matching. The candidates are the head symbol's rule
// group.
func (s *System) stepRootMatchBind(cur *term.Term) (*term.Term, bool, error) {
	for _, ri := range s.prog.index[cur.Sym] {
		r := &s.prog.rules[ri]
		b, ok := subst.MatchBind(r.LHS, cur, s.bindBuf[:0])
		s.bindBuf = b // keep the (possibly grown) buffer for reuse
		if !ok {
			continue
		}
		if err := s.spend(cur); err != nil {
			return nil, false, err
		}
		s.stats.RuleFires++
		out := b.Build(r.RHS)
		if s.trace != nil {
			s.trace(TraceStep{Rule: *r, Before: cur, After: out})
		}
		return out, true, nil
	}
	return nil, false, nil
}

// normalizeOutermost repeatedly contracts the leftmost-outermost redex.
func (s *System) normalizeOutermost(t *term.Term) (*term.Term, error) {
	cur := t
	for {
		next, ok, err := s.stepOutermost(cur)
		if err != nil {
			return nil, err
		}
		if !ok {
			return cur, nil
		}
		cur = next
	}
}

// stepOutermost performs one leftmost-outermost step, honouring the if and
// error special forms.
func (s *System) stepOutermost(t *term.Term) (*term.Term, bool, error) {
	switch t.Kind {
	case term.Var, term.Atom, term.Err:
		return t, false, nil
	}
	if t.IsIf() {
		cond := t.Args[0]
		switch {
		case cond.IsErr():
			if err := s.spend(t); err != nil {
				return nil, false, err
			}
			return term.NewErr(t.Sort), true, nil
		case cond.IsTrue():
			if err := s.spend(t); err != nil {
				return nil, false, err
			}
			return t.Args[1], true, nil
		case cond.IsFalse():
			if err := s.spend(t); err != nil {
				return nil, false, err
			}
			return t.Args[2], true, nil
		default:
			nc, ok, err := s.stepOutermost(cond)
			if err != nil || !ok {
				return t, ok, err
			}
			return term.NewIf(nc, t.Args[1], t.Args[2]), true, nil
		}
	}
	// Strict error at the root.
	for _, a := range t.Args {
		if a.IsErr() {
			if err := s.spend(t); err != nil {
				return nil, false, err
			}
			return term.NewErr(t.Sort), true, nil
		}
	}
	// Root redex first.
	if red, ok, err := s.stepRoot(t); err != nil {
		return nil, false, err
	} else if ok {
		return red, true, nil
	}
	// Otherwise leftmost argument.
	for i, a := range t.Args {
		na, ok, err := s.stepOutermost(a)
		if err != nil {
			return nil, false, err
		}
		if ok {
			args := make([]*term.Term, len(t.Args))
			copy(args, t.Args)
			args[i] = na
			return &term.Term{Kind: term.Op, Sym: t.Sym, Sort: t.Sort, Args: args}, true, nil
		}
	}
	return t, false, nil
}

// IsConstructorForm reports whether a ground term is built solely from
// constructors, atoms and error — i.e. whether it is a value. The dynamic
// half of the sufficient-completeness check asks exactly this of every
// normal form.
func IsConstructorForm(sp *spec.Spec, t *term.Term) bool {
	switch t.Kind {
	case term.Err, term.Atom:
		return true
	case term.Var:
		return false
	}
	if t.IsIf() {
		return false
	}
	if !sp.IsConstructor(t.Sym) {
		return false
	}
	for _, a := range t.Args {
		if !IsConstructorForm(sp, a) {
			return false
		}
	}
	return true
}
