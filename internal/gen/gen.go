// Package gen generates ground terms of a specification: the finite
// approximations of the algebra's carrier sets that every checker in the
// framework quantifies over. Values of parameter sorts ("Item is a
// parameter of the type", §3) and of atom sorts are drawn from a fixed
// universe of three atom spellings, 'a, 'b and 'c.
//
// Two modes are provided: exhaustive enumeration of all constructor terms
// up to a depth bound (used for the "for all legal assignments" proof
// obligations of §4, made finite), and random sampling (used to extend
// coverage beyond the exhaustive bound).
//
// On top of both sit the probe planners every checker shares:
// Applications (an operation applied exhaustively), Samples (an axiom's
// minimal plus random assignments) and SampledApplications (an operation
// applied to sampled arguments). Their draw order is fixed, so a seeded
// generator plans the same probes on every run.
package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// atoms is the value universe of every open (atom or parameter) sort.
var atoms = []string{"a", "b", "c"}

// Config configures a Generator.
type Config struct {
	// MaxTerms caps the size of each enumeration result (0 = 100000).
	MaxTerms int
	// Seed seeds the random sampler (0 = a fixed default, keeping runs
	// reproducible).
	Seed int64
	// Intern, when non-nil, makes the generator build hash-consed terms
	// in the given interner, so generated terms are canonical and share
	// structure with a rewrite system using the same interner.
	Intern *term.Interner
}

// Generator enumerates and samples ground constructor terms. All public
// methods are safe for concurrent use: the parallel checker drivers share
// one Generator across workers (so the enumeration memo is shared too) and
// a mutex serializes access to the memo and the random source.
type Generator struct {
	mu       sync.Mutex
	sp       *spec.Spec
	cfg      Config
	in       *term.Interner
	rng      *rand.Rand
	minDepth map[sig.Sort]int
	memo     map[memoKey][]*term.Term
}

type memoKey struct {
	sort  sig.Sort
	depth int
}

// New builds a generator for the specification.
func New(sp *spec.Spec, cfg Config) *Generator {
	if cfg.MaxTerms == 0 {
		cfg.MaxTerms = 100000
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x6177_7474 // arbitrary fixed default for reproducibility
	}
	g := &Generator{
		sp:   sp,
		cfg:  cfg,
		in:   cfg.Intern,
		rng:  rand.New(rand.NewSource(seed)),
		memo: make(map[memoKey][]*term.Term),
	}
	g.computeMinDepths()
	return g
}

// computeMinDepths finds, for every sort, the minimum depth of a ground
// constructor term of that sort (leaf sorts have depth 1).
func (g *Generator) computeMinDepths() {
	const inf = 1 << 30
	g.minDepth = make(map[sig.Sort]int)
	for _, so := range g.sp.Sig.Sorts() {
		if g.sp.Sig.OpenSort(so) {
			g.minDepth[so] = 1
		} else {
			g.minDepth[so] = inf
		}
	}
	for changed := true; changed; {
		changed = false
		for _, so := range g.sp.Sig.Sorts() {
			for _, op := range g.constructorsOf(so) {
				d := 1
				feasible := true
				for _, ds := range op.Domain {
					md, ok := g.minDepth[ds]
					if !ok || md >= inf {
						feasible = false
						break
					}
					if md+1 > d {
						d = md + 1
					}
				}
				if feasible && d < g.minDepth[so] {
					g.minDepth[so] = d
					changed = true
				}
			}
		}
	}
}

func (g *Generator) constructorsOf(so sig.Sort) []*sig.Operation {
	return g.sp.Constructors(so)
}

// atom and op build terms through the interner when one is configured.
func (g *Generator) atom(name string, so sig.Sort) *term.Term {
	if g.in != nil {
		return g.in.Atom(name, so)
	}
	return term.NewAtom(name, so)
}

func (g *Generator) op(name string, rng sig.Sort, args []*term.Term) *term.Term {
	if g.in != nil {
		return g.in.OpTerms(name, rng, args)
	}
	return &term.Term{Kind: term.Op, Sym: name, Sort: rng, Args: args}
}

// MinDepth returns the minimum ground-term depth for the sort, or false if
// the sort has no finite ground terms.
func (g *Generator) MinDepth(so sig.Sort) (int, bool) {
	d, ok := g.minDepth[so]
	return d, ok && d < 1<<30
}

// Enumerate returns every ground constructor term of the sort with depth
// at most maxDepth, capped at Config.MaxTerms. The order is deterministic.
func (g *Generator) Enumerate(so sig.Sort, maxDepth int) []*term.Term {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.enumCapped(so, maxDepth)
}

// enumCapped is Enumerate without the lock; callers hold g.mu.
func (g *Generator) enumCapped(so sig.Sort, maxDepth int) []*term.Term {
	out := g.enumerate(so, maxDepth)
	if len(out) > g.cfg.MaxTerms {
		out = out[:g.cfg.MaxTerms]
	}
	return out
}

func (g *Generator) enumerate(so sig.Sort, maxDepth int) []*term.Term {
	if maxDepth <= 0 {
		return nil
	}
	key := memoKey{so, maxDepth}
	if cached, ok := g.memo[key]; ok {
		return cached
	}
	var out []*term.Term
	if g.sp.Sig.OpenSort(so) {
		for _, a := range atoms {
			out = append(out, g.atom(a, so))
		}
		g.memo[key] = out
		return out
	}
	for _, op := range g.constructorsOf(so) {
		if len(op.Domain) == 0 {
			out = append(out, g.op(op.Name, op.Range, nil))
			continue
		}
		argChoices := make([][]*term.Term, len(op.Domain))
		feasible := true
		for i, ds := range op.Domain {
			argChoices[i] = g.enumerate(ds, maxDepth-1)
			if len(argChoices[i]) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		out = g.appendProducts(out, op, argChoices, g.cfg.MaxTerms+1)
	}
	g.memo[key] = out
	return out
}

// appendProducts appends op applied to every combination of argument
// choices, stopping once limit terms have been accumulated.
func (g *Generator) appendProducts(out []*term.Term, op *sig.Operation, choices [][]*term.Term, limit int) []*term.Term {
	idx := make([]int, len(choices))
	for {
		if len(out) >= limit {
			return out
		}
		args := make([]*term.Term, len(choices))
		for i, c := range choices {
			args[i] = c[idx[i]]
		}
		out = append(out, g.op(op.Name, op.Range, args))
		// Odometer increment.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(choices[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// Random returns one random ground constructor term of the sort with depth
// at most maxDepth, or an error if the sort has no ground term that small.
func (g *Generator) Random(so sig.Sort, maxDepth int) (*term.Term, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.random(so, maxDepth)
}

// random is Random without the lock; callers hold g.mu.
func (g *Generator) random(so sig.Sort, maxDepth int) (*term.Term, error) {
	if g.sp.Sig.OpenSort(so) {
		return g.atom(atoms[g.rng.Intn(len(atoms))], so), nil
	}
	md, ok := g.MinDepth(so)
	if !ok || md > maxDepth {
		return nil, fmt.Errorf("gen: sort %s has no ground terms of depth <= %d", so, maxDepth)
	}
	var feasible []*sig.Operation
	for _, op := range g.constructorsOf(so) {
		fits := true
		for _, ds := range op.Domain {
			dmd, dok := g.MinDepth(ds)
			if !dok || dmd+1 > maxDepth {
				fits = false
				break
			}
		}
		if fits {
			feasible = append(feasible, op)
		}
	}
	if len(feasible) == 0 {
		return nil, fmt.Errorf("gen: no feasible constructor for sort %s at depth %d", so, maxDepth)
	}
	op := feasible[g.rng.Intn(len(feasible))]
	args := make([]*term.Term, len(op.Domain))
	for i, ds := range op.Domain {
		a, err := g.random(ds, maxDepth-1)
		if err != nil {
			return nil, err
		}
		args[i] = a
	}
	return g.op(op.Name, op.Range, args), nil
}

// Minimal returns the first ground constructor term of the sort at its
// minimum depth — the canonical "smallest value" (new, zero, 'a, ...).
// Shrinking in the property harness uses it as the preferred replacement,
// and the oracle's instance zero binds every variable to it so boundary
// axioms (empty queue, zero counter) are always exercised regardless of
// the random draw. ok is false when the sort has no finite ground terms.
func (g *Generator) Minimal(so sig.Sort) (*term.Term, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	md, ok := g.minDepth[so]
	if !ok || md >= 1<<30 {
		return nil, false
	}
	ts := g.enumCapped(so, md)
	if len(ts) == 0 {
		return nil, false
	}
	return ts[0], true
}

// ShrinkCandidates lists strictly smaller replacements for a term, in
// preference order: the Minimal term of its sort, then its distinct
// proper subterms of the same sort, smallest first. It is the one shrink
// move set: the axiom oracle tries it on each bound term of a failing
// assignment, and the conformance session at each position of a failing
// program.
func (g *Generator) ShrinkCandidates(t *term.Term) []*term.Term {
	var out []*term.Term
	seen := map[string]bool{}
	size := t.Size()
	if min, ok := g.Minimal(t.Sort); ok && min.Size() < size {
		out = append(out, min)
		seen[min.String()] = true
	}
	var subs []*term.Term
	for _, s := range t.Subterms() {
		if s.Sort == t.Sort && s.Size() < size {
			subs = append(subs, s)
		}
	}
	sort.SliceStable(subs, func(i, j int) bool { return subs[i].Size() < subs[j].Size() })
	for _, s := range subs {
		if k := s.String(); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// MinimalAssignment binds every variable to the Minimal term of its sort.
// ok is false when any variable's sort has no finite ground terms.
func (g *Generator) MinimalAssignment(vars []*term.Term) (map[string]*term.Term, bool) {
	out := make(map[string]*term.Term, len(vars))
	for _, v := range vars {
		t, ok := g.Minimal(v.Sort)
		if !ok {
			return nil, false
		}
		out[v.Sym] = t
	}
	return out, true
}

// RandomAssignment draws one random ground term of depth <= maxDepth for
// each variable. The draw order is the variable order, so assignments are
// reproducible for a fixed seed.
func (g *Generator) RandomAssignment(vars []*term.Term, maxDepth int) (map[string]*term.Term, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]*term.Term, len(vars))
	for _, v := range vars {
		t, err := g.random(v.Sort, maxDepth)
		if err != nil {
			return nil, err
		}
		out[v.Sym] = t
	}
	return out, nil
}

// Instantiations enumerates substitution-like assignments for a list of
// variables (used to instantiate axiom instances): the result is the cross
// product of Enumerate for each variable's sort, capped at limit
// assignments. Each assignment maps variable name to ground term.
func (g *Generator) Instantiations(vars []*term.Term, maxDepth, limit int) []map[string]*term.Term {
	g.mu.Lock()
	defer g.mu.Unlock()
	if limit <= 0 {
		limit = g.cfg.MaxTerms
	}
	choices := make([][]*term.Term, len(vars))
	for i, v := range vars {
		choices[i] = g.enumCapped(v.Sort, maxDepth)
		if len(choices[i]) == 0 {
			return nil
		}
	}
	var out []map[string]*term.Term
	idx := make([]int, len(vars))
	for {
		if len(out) >= limit {
			return out
		}
		m := make(map[string]*term.Term, len(vars))
		for i, v := range vars {
			m[v.Sym] = choices[i][idx[i]]
		}
		out = append(out, m)
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(choices[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// Applications returns op applied to every instantiation of fresh
// argument variables x0…xn with ground terms of depth <= depth, capped
// at limit terms, in Instantiations order: the exhaustive probe list of
// the completeness, consistency and model checkers.
func (g *Generator) Applications(op *sig.Operation, depth, limit int) []*term.Term {
	vars := argVars(op)
	insts := g.Instantiations(vars, depth, limit)
	out := make([]*term.Term, len(insts))
	for i, inst := range insts {
		out[i] = apply(op, vars, inst)
	}
	return out
}

// Samples returns the minimal assignment of vars followed by up to n
// random ones of depth <= depth, drawn in that order from the seeded
// source: the instances of one axiom. When some variable's sort has no
// ground terms it draws nothing and returns nil. A failed random draw
// ends the list; its error comes back with the assignments before it.
func (g *Generator) Samples(vars []*term.Term, n, depth int) ([]map[string]*term.Term, error) {
	min, ok := g.MinimalAssignment(vars)
	if !ok {
		return nil, nil
	}
	out := []map[string]*term.Term{min}
	for i := 0; i < n; i++ {
		asn, err := g.RandomAssignment(vars, depth)
		if err != nil {
			return out, err
		}
		out = append(out, asn)
	}
	return out, nil
}

// SampledApplications returns op applied to sampled arguments: its
// fresh variables' minimal assignment, when there is one, then up to n
// random assignments, stopping at the first failed draw. Unlike Samples
// it still draws when the minimal assignment fails, so the two keep the
// draw orders the conformance planners' axiom and observer probes have
// always had.
func (g *Generator) SampledApplications(op *sig.Operation, n, depth int) []*term.Term {
	vars := argVars(op)
	var out []*term.Term
	if min, ok := g.MinimalAssignment(vars); ok {
		out = append(out, apply(op, vars, min))
	}
	for i := 0; i < n; i++ {
		asn, err := g.RandomAssignment(vars, depth)
		if err != nil {
			break
		}
		out = append(out, apply(op, vars, asn))
	}
	return out
}

// argVars returns fresh variables x0…xn, one per argument of op.
func argVars(op *sig.Operation) []*term.Term {
	vars := make([]*term.Term, len(op.Domain))
	for i, d := range op.Domain {
		vars[i] = term.NewVar(fmt.Sprintf("x%d", i), d)
	}
	return vars
}

// apply builds op over the terms an assignment binds to vars.
func apply(op *sig.Operation, vars []*term.Term, asn map[string]*term.Term) *term.Term {
	args := make([]*term.Term, len(vars))
	for i, v := range vars {
		args[i] = asn[v.Sym]
	}
	return term.NewOp(op.Name, op.Range, args...)
}
