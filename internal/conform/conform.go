// Package conform is the shared core of the conformance-testing
// subsystem: it turns a specification's axioms into a batch of ground
// observable probe programs (the planner), judges a client's reported
// observations against the engine's normal forms (the oracle), and
// shrinks any disagreement to a minimal counterexample program through
// an interactive candidate/observe loop (the session).
//
// Two front ends drive it. The /v1/conform endpoint on adt serve runs a
// session over a JSON wire protocol against a remote implementation;
// the driverkit package (and the packages adt gen-driver emits) runs
// the same planner and judge in-process against a Go implementation.
// Gaudel & Le Gall's reading of the paper — the axioms ARE the test
// oracle for any implementation — is the whole design: no front end
// contributes expected values, only observations.
package conform

import (
	"fmt"
	"slices"
	"sort"

	"algspec/internal/core"
	"algspec/internal/gen"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/subst"
	"algspec/internal/term"
)

// Normalizer reduces a ground term to its engine normal form. The serve
// layer binds one per HTTP request (carrying that request's fuel, stop
// flag and fault hook); in-process callers bind a plain fork.
type Normalizer func(*term.Term) (*term.Term, error)

// PlanConfig tunes program planning. The zero value is usable.
type PlanConfig struct {
	// N is the number of random instantiations per axiom on top of the
	// guaranteed minimal one (0 = 6, capped at 64).
	N int
	// Depth bounds randomly drawn ground terms (0 = 3, capped at 4).
	Depth int
	// Seed seeds the instance generator (0 = a fixed default).
	Seed int64
	// ObserveSorts lists extra sorts the client can reify, beyond the
	// always-observable Bool, atom and parameter sorts. A Counter client
	// representing counts as ints declares Nat here, which is what lets
	// the planner emit value(...) probes at all.
	ObserveSorts []sig.Sort
}

const (
	// maxPrograms caps the probe batch.
	maxPrograms = 256
	// maxShrink caps the candidate programs spent shrinking a
	// counterexample across all rounds.
	maxShrink = 64
)

func (c PlanConfig) withDefaults() PlanConfig {
	if c.N == 0 {
		c.N = 6
	}
	if c.N > 64 {
		c.N = 64
	}
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.Depth > 4 {
		c.Depth = 4
	}
	if c.Seed == 0 {
		c.Seed = 0x6177_7474 // gen's fixed default, for bare-run reproducibility
	}
	return c
}

// Program is one ground probe of an observable sort, with the engine's
// normal form as its oracle.
type Program struct {
	// ID is unique within a session (shrink candidates keep counting).
	ID int
	// Term is the probe; Text its surface syntax.
	Term *term.Term
	Text string
	// Sort is the probe's (observable) root sort.
	Sort sig.Sort
	// WantNF is the engine's normal form, the expected observation.
	WantNF string
	// Axiom labels the instantiated axiom the probe derives from
	// ("" for the observer-sweep probes).
	Axiom string
}

// Plan is a compiled probe batch for one spec.
type Plan struct {
	Spec     string
	Programs []*Program
	// Skipped counts probes dropped because their engine normal form was
	// not a constructor value (stuck term: nothing to compare against).
	Skipped int
	// Capped counts probes dropped because the batch already held
	// maxPrograms programs.
	Capped int

	cfg    PlanConfig
	env    *core.Env
	sp     *spec.Spec
	g      *gen.Generator
	nextID int
}

// NewPlan builds the probe batch: every own axiom instantiated with the
// minimal assignment plus N seeded random ones, each side lifted into
// observable-sort probes (directly when the side's sort is observable,
// wrapped in up to two layers of observer contexts when hidden), plus a
// CheckAgainstSpec-style sweep of ground observer terms for every
// non-constructor operation with an observable range. Probes whose
// normal form is not a constructor value are skipped and counted.
func NewPlan(env *core.Env, sp *spec.Spec, norm Normalizer, cfg PlanConfig) (*Plan, error) {
	cfg = cfg.withDefaults()
	p := &Plan{
		Spec: sp.Name,
		cfg:  cfg,
		env:  env,
		sp:   sp,
		g:    gen.New(sp, gen.Config{Seed: cfg.Seed}),
	}
	seen := map[string]bool{}
	add := func(t *term.Term, axiom string) error {
		if len(p.Programs) >= maxPrograms {
			p.Capped++
			return nil
		}
		text := t.String()
		if seen[text] {
			return nil
		}
		seen[text] = true
		prog, skipped, err := p.compile(t, axiom, norm)
		if err != nil {
			return err
		}
		if skipped {
			p.Skipped++
			return nil
		}
		p.Programs = append(p.Programs, prog)
		return nil
	}

	for _, ax := range sp.Own {
		// A failed draw only ends this axiom's instances early.
		asns, _ := p.g.Samples(ax.LHS.Vars(), cfg.N, cfg.Depth)
		for _, asn := range asns {
			s := subst.Subst(asn)
			for _, side := range []*term.Term{s.Apply(ax.LHS), s.Apply(ax.RHS)} {
				for _, probe := range p.lift(side, 2) {
					if err := add(probe, ax.Label); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Observer sweep: ground instances of every non-constructor,
	// non-native operation whose range the client can observe. This is
	// what catches an implementation whose lie never surfaces through an
	// axiom side — the same net CheckAgainstSpec casts for local models.
	for _, op := range sp.Observers(cfg.ObserveSorts...) {
		for _, probe := range p.g.SampledApplications(op, min(cfg.N, 4), cfg.Depth) {
			if err := add(probe, ""); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// compile normalizes a probe and attaches its oracle. skipped means the
// normal form is not a constructor value (an incompletely specified
// corner): there is no expected observation to compare against.
func (p *Plan) compile(t *term.Term, axiom string, norm Normalizer) (*Program, bool, error) {
	nf, err := norm(t)
	if err != nil {
		return nil, false, err
	}
	if !rewrite.IsConstructorForm(p.sp, nf) {
		return nil, true, nil
	}
	prog := &Program{
		ID:     p.nextID,
		Term:   t,
		Text:   t.String(),
		Sort:   t.Sort,
		WantNF: nf.String(),
		Axiom:  axiom,
	}
	p.nextID++
	return prog, false, nil
}

// lift turns a ground term into observable probes: the term itself when
// its sort is observable, otherwise the term wrapped in observer
// contexts (every operation taking its sort, remaining positions filled
// with minimal ground terms), recursively up to depth wraps.
func (p *Plan) lift(t *term.Term, depth int) []*term.Term {
	ctxs := ObserverContexts(p.sp, p.g, p.cfg.ObserveSorts, t.Sort, depth)
	out := make([]*term.Term, 0, len(ctxs))
	hole := subst.Subst{HoleVar: t}
	for _, c := range ctxs {
		out = append(out, hole.Apply(c))
	}
	return out
}

// HoleVar is the distinguished variable naming the hole in an observer
// context returned by ObserverContexts. The name is outside the
// identifier space spec authors use, so it cannot collide with axiom
// variables when a context is composed with an axiom side.
const HoleVar = "__hole"

// ObserverContexts enumerates observable contexts for a sort: terms
// with a single HoleVar occurrence of the given sort whose root sort is
// observable (spec.Observable, or one of the extra sorts the client
// declares). A hole of an observable sort yields the identity context;
// a hidden sort is wrapped in every operation taking it (remaining
// positions filled with minimal ground terms), recursively up to depth
// wraps. This is the shared lift machinery of the conformance planner
// and the driverkit generator: both fronts must probe hidden sorts
// through exactly the same observations.
func ObserverContexts(sp *spec.Spec, g *gen.Generator, extra []sig.Sort, so sig.Sort, depth int) []*term.Term {
	if sp.Observable(so) || slices.Contains(extra, so) {
		return []*term.Term{term.NewVar(HoleVar, so)}
	}
	if depth <= 0 {
		return nil
	}
	var out []*term.Term
	for _, op := range sp.Sig.OpsTaking(so) {
		for pos, d := range op.Domain {
			if d != so {
				continue
			}
			args := make([]*term.Term, len(op.Domain))
			feasible := true
			for i, fs := range op.Domain {
				if i == pos {
					args[i] = term.NewVar(HoleVar, so)
					continue
				}
				fill, ok := g.Minimal(fs)
				if !ok {
					feasible = false
					break
				}
				args[i] = fill
			}
			if !feasible {
				continue
			}
			inner := term.NewOp(op.Name, op.Range, args...)
			for _, outer := range ObserverContexts(sp, g, extra, op.Range, depth-1) {
				out = append(out, subst.Subst{HoleVar: inner}.Apply(outer))
			}
		}
	}
	return out
}

// Observation is a client's report for one program: either a surface-
// syntax constructor term of the program's sort, or the distinguished
// error.
type Observation struct {
	ID      int    `json:"id"`
	Value   string `json:"value,omitempty"`
	IsError bool   `json:"error,omitempty"`
}

// Failure is one program whose observation disagreed with the engine.
type Failure struct {
	Axiom   string `json:"axiom,omitempty"`
	Program string `json:"program"`
	Want    string `json:"want"`
	Got     string `json:"got"`

	tm *term.Term // for shrinking; nil after wire transport
}

func (f Failure) String() string {
	label := ""
	if f.Axiom != "" {
		label = fmt.Sprintf(" (from axiom [%s])", f.Axiom)
	}
	return fmt.Sprintf("%s%s: engine says %s, implementation observed %s", f.Program, label, f.Want, f.Got)
}

// Verdict is the outcome of a completed session.
type Verdict struct {
	Pass    bool
	Checked int
	// FailureCount is the total number of disagreeing programs;
	// Failures records the first few.
	FailureCount int
	Failures     []Failure
	// Counterexample is the shrunk minimal failing program (nil on pass).
	Counterexample *Failure
	// ShrinkSteps counts accepted shrink replacements.
	ShrinkSteps int
}

// ProtocolError marks a malformed client move (bad round, missing
// observation); the serve layer answers it with 400/409 rather than 500.
type ProtocolError struct{ Msg string }

func (e *ProtocolError) Error() string { return "conform: " + e.Msg }

// Session drives one conformance run to a verdict: round 1 serves the
// plan's probe batch, later rounds serve shrink candidate programs for
// the smallest failing probe, and the verdict lands when no candidate
// improves (or the shrink budget runs out).
type Session struct {
	plan    *Plan
	round   int
	current []*Program

	checked      int
	failureCount int
	failures     []Failure

	best        *Failure
	budget      int
	shrinkSteps int
	verdict     *Verdict
}

// NewSession starts a session on a plan. The first round's programs are
// the plan's Programs.
func NewSession(p *Plan) *Session {
	return &Session{plan: p, round: 1, current: p.Programs, budget: maxShrink}
}

// Round is the round number Observe expects next (starting at 1).
func (s *Session) Round() int { return s.round }

// Done reports whether the verdict is in.
func (s *Session) Done() bool { return s.verdict != nil }

// Verdict returns the final verdict (nil while the session is live).
func (s *Session) Verdict() *Verdict { return s.verdict }

// maxRecordedFailures caps the failures echoed in a verdict; the count
// is always exact.
const maxRecordedFailures = 8

// Observe consumes the observations for the current round. When the
// session needs more observations (shrink candidates) it returns
// done=false and the next round's programs; otherwise done=true and the
// verdict is available. A normalization error (fuel, cancellation)
// leaves the session state untouched, so the round may be retried.
func (s *Session) Observe(obs []Observation, norm Normalizer) (done bool, next []*Program, err error) {
	if s.verdict != nil {
		return true, nil, nil
	}
	byID := make(map[int]Observation, len(obs))
	for _, o := range obs {
		byID[o.ID] = o
	}
	// Judge the whole round before committing any state: a mid-round
	// fault must leave the session retryable.
	type judged struct {
		prog *Program
		ok   bool
		got  string
	}
	results := make([]judged, 0, len(s.current))
	for _, prog := range s.current {
		o, ok := byID[prog.ID]
		if !ok {
			return false, nil, &ProtocolError{Msg: fmt.Sprintf("round %d: no observation for program %d", s.round, prog.ID)}
		}
		ok2, got, jerr := s.judge(prog, o, norm)
		if jerr != nil {
			return false, nil, jerr
		}
		results = append(results, judged{prog, ok2, got})
	}

	if s.round == 1 {
		s.checked = len(results)
		for _, r := range results {
			if r.ok {
				continue
			}
			s.failureCount++
			if len(s.failures) < maxRecordedFailures {
				s.failures = append(s.failures, failureOf(r.prog, r.got))
			}
			s.consider(r.prog, r.got)
		}
	} else {
		// Shrink round: accept the first (smallest) candidate that still
		// fails as the new best. When every candidate passes, no smaller
		// program reproduces the failure and the verdict is in —
		// regenerating candidates from the unchanged best would only
		// re-serve the identical programs until the budget ran dry.
		improved := false
		for _, r := range results {
			if !r.ok {
				f := failureOf(r.prog, r.got)
				s.best = &f
				s.shrinkSteps++
				improved = true
				break
			}
		}
		if !improved {
			s.finish()
			return true, nil, nil
		}
	}

	if s.best == nil {
		s.finish()
		return true, nil, nil
	}
	cands, cerr := s.candidates(norm)
	if cerr != nil {
		return false, nil, cerr
	}
	if len(cands) == 0 {
		s.finish()
		return true, nil, nil
	}
	s.round++
	s.current = cands
	return false, cands, nil
}

// judge compares one observation to the program's oracle.
func (s *Session) judge(prog *Program, o Observation, norm Normalizer) (ok bool, got string, err error) {
	if o.IsError {
		return prog.WantNF == term.ErrName, term.ErrName, nil
	}
	t, perr := s.plan.env.ParseTermAs(s.plan.Spec, o.Value, prog.Sort)
	if perr != nil {
		return false, fmt.Sprintf("%q (not a term of sort %s: %v)", o.Value, prog.Sort, perr), nil
	}
	nf, nerr := norm(t)
	if nerr != nil {
		return false, "", nerr
	}
	return nf.String() == prog.WantNF, nf.String(), nil
}

// consider keeps the smallest failing probe as the shrink seed.
func (s *Session) consider(prog *Program, got string) {
	if s.best == nil || smaller(prog, s.best) {
		f := failureOf(prog, got)
		s.best = &f
	}
}

func failureOf(prog *Program, got string) Failure {
	return Failure{Axiom: prog.Axiom, Program: prog.Text, Want: prog.WantNF, Got: got, tm: prog.Term}
}

func smaller(prog *Program, than *Failure) bool {
	ps, ts := prog.Term.Size(), than.tm.Size()
	if ps != ts {
		return ps < ts
	}
	return prog.Text < than.Program
}

// candidates builds the next shrink round: every distinct variant of the
// best failing program obtained by replacing the subtree at one position
// with one of its gen.ShrinkCandidates — the move set axtest's
// assignment shrinker uses, applied at every position of a whole
// program. Candidates are compiled (normalized, value-checked) and
// served smallest first, ties in text order.
func (s *Session) candidates(norm Normalizer) ([]*Program, error) {
	if s.budget <= 0 {
		return nil, nil
	}
	best := s.best.tm
	var reps []*term.Term
	seen := map[string]bool{}
	for _, pos := range best.Positions() {
		for _, c := range s.plan.g.ShrinkCandidates(best.At(pos)) {
			rep := best.ReplaceAt(pos, c)
			if key := rep.String(); !seen[key] {
				seen[key] = true
				reps = append(reps, rep)
			}
		}
	}
	sort.SliceStable(reps, func(i, j int) bool {
		if reps[i].Size() != reps[j].Size() {
			return reps[i].Size() < reps[j].Size()
		}
		return reps[i].String() < reps[j].String()
	})
	var out []*Program
	for _, rep := range reps {
		if s.budget <= 0 {
			break
		}
		s.budget--
		prog, skipped, err := s.plan.compile(rep, s.best.Axiom, norm)
		if err != nil {
			return nil, err
		}
		if skipped {
			continue
		}
		out = append(out, prog)
	}
	return out, nil
}

// finish seals the verdict.
func (s *Session) finish() {
	v := &Verdict{
		Pass:         s.failureCount == 0,
		Checked:      s.checked,
		FailureCount: s.failureCount,
		Failures:     s.failures,
		ShrinkSteps:  s.shrinkSteps,
	}
	if s.best != nil {
		ce := *s.best
		ce.tm = nil
		v.Counterexample = &ce
	}
	s.verdict = v
	s.current = nil
}
