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
// Operations declared native are evaluated by Go functions registered with
// the engine (atom equality and atom hashing), covering the paper's
// independently defined IS_SAME? and HASH operations on type Identifier.
//
// A System separates the immutable compiled form of a specification (rule
// list, head-symbol index, shared term interner) from mutable evaluation
// state (fuel accounting, memo table, statistics). Fork creates a sibling
// System over the same compiled form in O(1)ish time; parallel checker
// drivers fork one System per worker because the mutable state must not
// be shared between goroutines.
package rewrite

import (
	"errors"
	"fmt"
	"hash/fnv"
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
// because the stop flag installed with WithStop was raised — in the
// server, because the request's deadline expired. Distinguish it from
// ErrFuel: fuel exhaustion is a property of the term and axioms (422),
// cancellation a property of the caller's patience (504).
var ErrCanceled = errors.New("rewrite: normalization canceled")

// stopCheckMask bounds how stale a cancellation can be: the stop flag is
// polled every time the step counter crosses a multiple of mask+1, so a
// raised flag is noticed within 1024 reductions (well under a
// millisecond) without putting an atomic load on every step.
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
	// MemoHits counts ground subterms answered from the memo table.
	MemoHits int
	// NativeCalls counts native (Go-implemented) operation evaluations.
	NativeCalls int
	// CompiledEvals counts outermost Normalize calls served by the
	// compiled machine tier; InterpEvals counts the ones served by the
	// MatchBind interpreter (memo, trace, outermost strategy, or
	// ablation).
	CompiledEvals int
	InterpEvals   int
}

// Add returns the component-wise sum of two Stats (used by parallel
// drivers to merge per-worker counters deterministically).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Steps:         s.Steps + o.Steps,
		RuleFires:     s.RuleFires + o.RuleFires,
		MemoHits:      s.MemoHits + o.MemoHits,
		NativeCalls:   s.NativeCalls + o.NativeCalls,
		CompiledEvals: s.CompiledEvals + o.CompiledEvals,
		InterpEvals:   s.InterpEvals + o.InterpEvals,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("steps=%d rule-fires=%d memo-hits=%d native-calls=%d compiled-evals=%d interp-evals=%d",
		s.Steps, s.RuleFires, s.MemoHits, s.NativeCalls, s.CompiledEvals, s.InterpEvals)
}

// DefaultMemoLimit is the memo table's eviction bound: once the table
// holds more entries than this, it is discarded and rebuilt from empty
// (bounding memory on long-lived systems at the cost of re-deriving
// normal forms).
const DefaultMemoLimit = 1 << 18

// Option configures a System.
type Option func(*System)

// WithStrategy selects the evaluation strategy.
func WithStrategy(s Strategy) Option { return func(sys *System) { sys.strategy = s } }

// WithMaxSteps sets the fuel limit (default 1<<20 rule applications).
func WithMaxSteps(n int) Option { return func(sys *System) { sys.maxSteps = n } }

// WithTrace installs a step listener. Tracing has a cost; leave nil in
// benchmarks.
func WithTrace(f func(TraceStep)) Option { return func(sys *System) { sys.trace = f } }

// WithNative registers a native implementation for an operation name,
// overriding the defaults.
func WithNative(op string, f NativeFunc) Option {
	return func(sys *System) { sys.native[op] = f }
}

// WithoutRuleIndex disables head-symbol indexing, forcing the
// interpreter to scan all rules at every redex (it implies
// WithoutCompiledTier — the machine's match programs are an index).
// Exists only for the ablation benchmark.
func WithoutRuleIndex() Option { return func(sys *System) { sys.noIndex = true } }

// WithoutCompiledTier disables the machine tier (flat match/build
// programs over arena scratch terms), so evaluation runs on the
// interpreter: per-rule subst.MatchBind over the head-symbol index, the
// reference semantics the machine is tested against. Exists for the
// ablation benchmarks and as one half of the compiled-vs-interpreted
// differential tests.
func WithoutCompiledTier() Option { return func(sys *System) { sys.noCompiled = true } }

// WithMemo enables memoization of normal forms for ground subterms. The
// memo is keyed by hash-consed (pointer-canonical) terms from the
// system's interner, so structurally distinct terms can never collide on
// an entry. Memory is bounded by an eviction policy: when the table
// exceeds its bound (DefaultMemoLimit entries unless overridden with
// WithMemoLimit), the whole table is dropped and rebuilt from empty.
func WithMemo() Option {
	return func(sys *System) { sys.memo = make(map[*term.Term]*term.Term) }
}

// WithMemoLimit sets the memo table's eviction bound (entries). It
// implies WithMemo. A small limit is useful in tests exercising the
// eviction path and on memory-constrained workloads.
func WithMemoLimit(n int) Option {
	return func(sys *System) {
		sys.memoLimit = n
		if sys.memo == nil {
			sys.memo = make(map[*term.Term]*term.Term)
		}
	}
}

// WithStop installs a cancellation flag: when flag becomes true, the
// next stop-poll (every 1024 steps) abandons the normalization with an
// error wrapping ErrCanceled. The flag may be raised from any goroutine;
// the serve subsystem raises it when a request's context deadline
// expires so the worker is freed instead of burning its full fuel.
func WithStop(flag *atomic.Bool) Option {
	return func(sys *System) { sys.stop = flag }
}

// WithFault installs a fault hook polled once per reduction, right
// after the step is charged: a non-nil error abandons the normalization
// with that error. It exists for deterministic fault injection — the
// serve layer threads internal/faultinject points through it to force
// ErrFuel (422) and ErrCanceled (504) outcomes on demand — and is the
// injection twin of WithStop. An *ErrFuel returned with a nil Last is
// completed by the engine with the actual step count and current term,
// so an injected fuel error is indistinguishable from a real one.
// Forks do not inherit the hook (like the stop flag, it belongs to one
// caller). The hook runs on the engine goroutine; it must not block.
func WithFault(hook func() error) Option {
	return func(sys *System) { sys.fault = hook }
}

// WithInterner makes the system hash-cons into the given interner instead
// of a private one, so canonical terms (and memo identity) are shared
// with other systems or a generator.
func WithInterner(in *term.Interner) Option {
	return func(sys *System) { sys.intern = in }
}

// program is the immutable compiled form of a specification, shared by
// every System forked from the same New call.
type program struct {
	sp    *spec.Spec
	rules []Rule
	index map[string][]int // head symbol -> rule indices, in priority order
	// allRules is the 0..len(rules) identity list the WithoutRuleIndex
	// ablation scans; precomputed once so the ablation measures indexing,
	// not per-redex allocator pressure.
	allRules []int
	// mach is the machine tier: flat register-addressed match programs
	// and arena-targeted build programs (machine.go).
	mach *machine
}

// System is a compiled rewrite system for one specification. A System is
// stateful (fuel accounting, memo table, statistics) and therefore NOT
// safe for concurrent use; call Fork to get an independent sibling over
// the same compiled rules for each goroutine.
type System struct {
	prog       *program
	native     map[string]NativeFunc
	strategy   Strategy
	maxSteps   int
	noIndex    bool
	noCompiled bool
	trace      func(TraceStep)

	intern    *term.Interner
	memo      map[*term.Term]*term.Term
	memoLimit int
	// stop, when non-nil, is polled every stopCheckMask+1 steps; a true
	// value abandons the normalization with ErrCanceled. Set per request
	// via WithStop; Fork deliberately does not inherit it (a fork serves
	// a different caller with a different deadline).
	stop *atomic.Bool
	// fault, when non-nil, is consulted once per spend; a non-nil error
	// abandons the normalization. Set via WithFault; like stop, Fork
	// does not inherit it.
	fault func() error

	// disp folds the native table and the machine's match programs into
	// one map so the machine pays a single string hash per redex. Built
	// after options are applied (New and Fork), since WithNative changes
	// it, and only on the machine tier.
	disp map[string]dispatch
	// gen is this system's normal-form token: terms the system has proven
	// to be their own normal form are stamped with it (term.MarkNormalTag).
	// The compiled program is immutable and terms are never mutated, so
	// normality is permanent for the lifetime of a System; callers that
	// re-embed returned normal forms in bigger terms (every checker and
	// the E1 workload do) then skip the quadratic re-traversal of the
	// shared spine in O(1). Skipping redex-free subterms performs no
	// reductions, so Stats and traces are unaffected. Tokens are unique
	// per System (Fork takes a fresh one: strategy or natives may differ),
	// so a term stamped by another system simply misses.
	gen uint32

	stats Stats
	// bindBuf is the interpreter's reusable MatchBind binding buffer.
	bindBuf subst.Bindings
	// useCompiled, resolved by buildDispatch, routes the Eval seam: true
	// selects the machine tier, false the interpreter. regStack is the
	// machine's register stack — each rule fire carves a frame at regTop
	// and bumps it for the build tree's evaluation, so nested matches run
	// above the live captures (a ruled operation's children are even
	// evaluated directly into its frame — applyRules); arena is the
	// scratch-term allocator, reset at every outermost Canon boundary.
	useCompiled bool
	plainSpend  bool
	regStack    []*term.Term
	regTop      int
	arena       *term.Arena
	canonCache  *term.CanonCache
	// dispID is the dense dispatch table indexed by the machine's symbol
	// ids (scratch-node hints); entry 0 is the zero dispatch.
	dispID []dispatch
	// active and budget implement the per-call fuel limit: the budget is
	// set when an outermost Normalize begins and left alone by the
	// nested Normalize calls the conditional's lazy semantics makes
	// (otherwise each nested call would refresh the fuel and a
	// divergence threaded through conditionals could run forever).
	active bool
	budget int
}

// New compiles a specification into a rewrite system. Axioms inherited
// from used specifications participate with lower priority than the
// spec's own axioms (they come first in spec.All, and rule order within a
// head symbol follows spec.All order, so earlier axioms win — matching
// the paper's practice of listing the general case after the specific).
func New(sp *spec.Spec, opts ...Option) *System {
	sys := &System{
		native:    make(map[string]NativeFunc),
		maxSteps:  1 << 20,
		memoLimit: DefaultMemoLimit,
	}
	// Default natives: same?/isSame?-style equality and hash on atoms.
	for _, op := range sp.Sig.Ops() {
		if !op.Native {
			continue
		}
		if f, ok := defaultNative(op.Name); ok {
			sys.native[op.Name] = f
		}
	}
	for _, o := range opts {
		o(sys)
	}
	if sys.intern == nil {
		sys.intern = term.NewInterner()
	}
	prog := &program{sp: sp, index: make(map[string][]int)}
	for _, a := range sp.All {
		// Rules are stored hash-consed so substitution results built from
		// them stay canonical on the memoized path.
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
	prog.allRules = make([]int, len(prog.rules))
	for i := range prog.allRules {
		prog.allRules[i] = i
	}
	prog.mach = compileMachine(prog.rules)
	sys.prog = prog
	sys.buildDispatch()
	return sys
}

// dispatch is the per-head-symbol entry of the merged hot-path table.
type dispatch struct {
	native NativeFunc
	mp     *matchProg
}

func (s *System) buildDispatch() {
	s.gen = genCounter.Add(1)
	s.plainSpend = s.stop == nil && s.fault == nil
	// Tier selection: the machine serves the default configuration —
	// innermost strategy, no memo, no trace, indexed compiled matching.
	// Everything else (memoization wants interned intermediate results,
	// tracing wants to see each step, outermost is a different strategy,
	// the ablations exist to measure the interpreter) runs on the
	// MatchBind interpreter behind the same Normalize seam.
	s.useCompiled = !s.noCompiled && !s.noIndex &&
		s.memo == nil && s.trace == nil && s.strategy == Innermost
	if s.useCompiled {
		s.disp = make(map[string]dispatch, len(s.prog.mach.progs)+len(s.native))
		for sym, mp := range s.prog.mach.progs {
			s.disp[sym] = dispatch{mp: mp}
		}
		for sym, nf := range s.native {
			d := s.disp[sym]
			d.native = nf
			s.disp[sym] = d
		}
		if s.arena == nil {
			s.arena = term.NewArena()
		}
		if s.canonCache == nil {
			s.canonCache = term.NewCanonCache()
		}
		s.dispID = make([]dispatch, len(s.prog.mach.symID)+1)
		for sym, id := range s.prog.mach.symID {
			s.dispID[id] = s.disp[sym]
		}
	}
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
// index and interner, with fresh mutable state (zero Stats, empty memo if
// memoization was enabled, no trace listener). Options may adjust the
// fork, e.g. WithStrategy for a different evaluation order. Fork is how
// parallel checker drivers give each worker goroutine its own engine
// without recompiling the specification.
func (s *System) Fork(opts ...Option) *System {
	ns := &System{
		prog:       s.prog,
		native:     make(map[string]NativeFunc, len(s.native)),
		strategy:   s.strategy,
		maxSteps:   s.maxSteps,
		noIndex:    s.noIndex,
		noCompiled: s.noCompiled,
		intern:     s.intern,
		memoLimit:  s.memoLimit,
	}
	for k, v := range s.native {
		ns.native[k] = v
	}
	if s.memo != nil {
		ns.memo = make(map[*term.Term]*term.Term)
	}
	for _, o := range opts {
		o(ns)
	}
	ns.buildDispatch()
	return ns
}

// defaultNative supplies engine-level semantics for the conventional
// native operation names. Any binary native whose name contains "same" or
// "eq" compares atoms; any unary native whose name contains "hash" hashes
// an atom's spelling into a small constructor term is not possible
// generically, so hashing natives return a Bool-free atom-keyed result via
// HashAtom.
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

// HashAtomMod returns a native that hashes an atom's spelling modulo n,
// producing the term bucket_k (a constant that must exist in the
// signature). It reproduces the paper's HASH: Identifier -> [1..n].
// A bucket count below one is a programming error and panics immediately
// rather than dividing by zero at the first native call mid-rewrite.
func HashAtomMod(n int, bucket func(k int) *term.Term) NativeFunc {
	if n <= 0 {
		panic(fmt.Sprintf("rewrite: HashAtomMod requires a positive bucket count, got %d", n))
	}
	return func(args []*term.Term) (*term.Term, bool) {
		if len(args) != 1 || args[0].Kind != term.Atom {
			return nil, false
		}
		h := fnv.New32a()
		h.Write([]byte(args[0].Sym))
		return bucket(int(h.Sum32() % uint32(n))), true
	}
}

// Spec returns the specification the system was compiled from.
func (s *System) Spec() *spec.Spec { return s.prog.sp }

// Rules returns the compiled rules in priority order.
func (s *System) Rules() []Rule {
	out := make([]Rule, len(s.prog.rules))
	copy(out, s.prog.rules)
	return out
}

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
// machine tier the returned normal form is interned (Canon) and
// stamped normal before the arena's scratch terms are recycled, so no
// engine-private term ever escapes.
func (s *System) Normalize(t *term.Term) (*term.Term, error) {
	if s.active {
		// Nested call (the interpreter's lazy-if path re-enters through
		// Normalize): stay on the current budget and tier.
		return s.evalInterp(t)
	}
	s.active = true
	s.budget = s.stats.Steps + s.maxSteps
	defer func() { s.active = false }()
	if s.useCompiled {
		s.stats.CompiledEvals++
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
	s.stats.InterpEvals++
	return s.evalInterp(t)
}

// evalInterp dispatches to the interpreter tier's strategy.
func (s *System) evalInterp(t *term.Term) (*term.Term, error) {
	switch s.strategy {
	case Outermost:
		return s.normalizeOutermost(t)
	default:
		return s.normalizeInnermost(t)
	}
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
// inlineable: no stop flag, no fault injection, budget not exceeded.
func (s *System) spend(last *term.Term) error {
	s.stats.Steps++
	if s.plainSpend && s.stats.Steps <= s.budget {
		return nil
	}
	return s.spendSlow(last)
}

func (s *System) spendSlow(last *term.Term) error {
	if s.stop != nil && s.stats.Steps&stopCheckMask == 0 && s.stop.Load() {
		return fmt.Errorf("%w near %s", ErrCanceled, clip(last))
	}
	if s.fault != nil {
		if err := s.fault(); err != nil {
			// An injected fuel error carries no engine state; fill in the
			// real step count and position so it reads like the genuine
			// article to every caller.
			var fe *ErrFuel
			if errors.As(err, &fe) && fe.Last == nil {
				fe.Steps = s.stats.Steps - (s.budget - s.maxSteps)
				fe.Last = last
			}
			return err
		}
	}
	if s.stats.Steps > s.budget {
		// Report the steps actually spent by this outermost call (the
		// budget was set to the step counter at entry plus maxSteps).
		return &ErrFuel{Steps: s.stats.Steps - (s.budget - s.maxSteps), Last: last}
	}
	return nil
}

// normalizeInnermost is call-by-value evaluation with lazy if and strict
// error.
func (s *System) normalizeInnermost(t *term.Term) (*term.Term, error) {
	switch t.Kind {
	case term.Var, term.Atom, term.Err:
		return t, nil
	}
	// The normal-form tag serves the non-memoized path; a memoized system
	// already answers re-normalizations in O(1) through canonical-pointer
	// probes, and tagging first would bypass (and under-count) the memo.
	if s.memo == nil && t.NormalTag() == s.gen {
		return t, nil
	}

	if t.IsIf() {
		return s.reduceIf(t)
	}

	// The memo is keyed by the canonical (hash-consed) node, so two
	// structurally distinct terms can never share an entry; the interner
	// resolves bucket collisions structurally before handing out an
	// identity. Canon is O(1) once a term is interned, and results are
	// stored interned, so steady-state probes touch no structure.
	var memoKey *term.Term
	if s.memo != nil && t.IsGround() {
		memoKey = s.intern.Canon(t)
		if nf, ok := s.memo[memoKey]; ok {
			s.stats.MemoHits++
			return nf, nil
		}
		t = memoKey // canonical args make child memo probes O(1)
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
		if memoKey != nil {
			cur = s.intern.OpTerms(t.Sym, t.Sort, args)
		} else {
			cur = &term.Term{Kind: term.Op, Sym: t.Sym, Sort: t.Sort, Args: args}
		}
	}

	nf, err := s.rootThenRecurse(cur)
	if err != nil {
		return nil, err
	}
	if memoKey != nil {
		nf = s.intern.Canon(nf)
		if len(s.memo) >= s.memoLimit {
			// Bound memory: drop the memo table once it reaches the
			// eviction bound and start over.
			s.memo = make(map[*term.Term]*term.Term)
		}
		s.memo[memoKey] = nf
	} else {
		nf.MarkNormalTag(s.gen)
	}
	return nf, nil
}

// rootThenRecurse applies a rule or native at the root of a term whose
// arguments are already in normal form; on success the result is
// normalized again.
func (s *System) rootThenRecurse(cur *term.Term) (*term.Term, error) {
	if red, ok, err := s.stepRoot(cur); err != nil {
		return nil, err
	} else if ok {
		return s.normalizeInnermost(red)
	}
	return cur, nil
}

// stepRoot tries native evaluation then rule matching at the root.
func (s *System) stepRoot(cur *term.Term) (*term.Term, bool, error) {
	if nf, ok := s.native[cur.Sym]; ok {
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
// group, or every rule under the WithoutRuleIndex ablation.
func (s *System) stepRootMatchBind(cur *term.Term) (*term.Term, bool, error) {
	for _, ri := range s.candidates(cur.Sym) {
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
		var out *term.Term
		if s.memo != nil {
			out = b.Build(s.intern, r.RHS)
		} else {
			out = b.Build(nil, r.RHS)
		}
		if s.trace != nil {
			s.trace(TraceStep{Rule: *r, Before: cur, After: out})
		}
		return out, true, nil
	}
	return nil, false, nil
}

func (s *System) candidates(head string) []int {
	if s.noIndex {
		return s.prog.allRules
	}
	return s.prog.index[head]
}

// reduceIf gives the conditional its lazy semantics.
func (s *System) reduceIf(t *term.Term) (*term.Term, error) {
	cond, err := s.Normalize(t.Args[0])
	if err != nil {
		return nil, err
	}
	switch {
	case cond.IsErr():
		if err := s.spend(t); err != nil {
			return nil, err
		}
		return term.NewErr(t.Sort), nil
	case cond.IsTrue():
		if err := s.spend(t); err != nil {
			return nil, err
		}
		return s.Normalize(t.Args[1])
	case cond.IsFalse():
		if err := s.spend(t); err != nil {
			return nil, err
		}
		return s.Normalize(t.Args[2])
	default:
		// Symbolic condition: normalize branches and keep the if.
		then, err := s.Normalize(t.Args[1])
		if err != nil {
			return nil, err
		}
		els, err := s.Normalize(t.Args[2])
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
