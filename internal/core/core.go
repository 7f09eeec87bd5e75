// Package core is the public face of the algebraic specification
// framework: it ties the lexer/parser, semantic analysis, specification
// model and rewrite engine together behind a small API.
//
// The central type is Env, an environment of named, checked
// specifications. Specifications are loaded from source text; a later
// specification may use any earlier one (the paper's layered development:
// Symboltable uses Identifier and Attributelist, its representation uses
// Stack and Array).
//
//	env := core.NewEnv()
//	env.MustLoad(speclib.Bool, speclib.Item, speclib.Queue)
//	q := env.MustEval("Queue", "front(add(add(new, 'x), 'y))")
//	// q is the term 'x
package core

import (
	"fmt"
	"sort"
	"sync"

	"algspec/internal/ast"
	"algspec/internal/lang"
	"algspec/internal/rewrite"
	"algspec/internal/sema"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/subst"
	"algspec/internal/term"
)

// Env is an environment of checked specifications. The zero value is not
// usable; call NewEnv. Loading is not concurrency-safe, but once the
// environment is populated, System/SystemWithStrategy may be called from
// multiple goroutines (the compiled-system cache is mutex-guarded).
// Note the cached systems themselves are stateful: a caller that wants to
// normalize on several goroutines forks the cached system per worker.
type Env struct {
	specs   map[string]*spec.Spec
	order   []string
	sysMu   sync.Mutex
	systems map[sysKey]*rewrite.System
}

type sysKey struct {
	name     string
	strategy rewrite.Strategy
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{
		specs:   make(map[string]*spec.Spec),
		systems: make(map[sysKey]*rewrite.System),
	}
}

// Load parses and checks every specification in the source text, in
// order, adding each to the environment. It returns the specs added.
func (e *Env) Load(src string) ([]*spec.Spec, error) {
	file, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	var added []*spec.Spec
	for _, sp := range file.Specs {
		checked, err := sema.Build(sp, e.lookup)
		if err != nil {
			return nil, err
		}
		if err := e.Add(checked); err != nil {
			return nil, err
		}
		added = append(added, checked)
	}
	return added, nil
}

// MustLoad loads one or more source texts, panicking on error. It is for
// loading the embedded specification library, whose sources are tested.
func (e *Env) MustLoad(srcs ...string) {
	for _, src := range srcs {
		if _, err := e.Load(src); err != nil {
			panic(fmt.Sprintf("core: loading embedded spec: %v", err))
		}
	}
}

// Add inserts an already-checked specification.
func (e *Env) Add(sp *spec.Spec) error {
	if sp == nil {
		return fmt.Errorf("core: nil spec")
	}
	if _, dup := e.specs[sp.Name]; dup {
		return fmt.Errorf("core: specification %s already loaded", sp.Name)
	}
	if err := sp.Validate(); err != nil {
		return err
	}
	e.specs[sp.Name] = sp
	e.order = append(e.order, sp.Name)
	return nil
}

func (e *Env) lookup(name string) (*spec.Spec, bool) {
	sp, ok := e.specs[name]
	return sp, ok
}

// Get returns a specification by name.
func (e *Env) Get(name string) (*spec.Spec, bool) {
	sp, ok := e.specs[name]
	return sp, ok
}

// MustGet returns a specification by name, panicking if absent.
func (e *Env) MustGet(name string) *spec.Spec {
	sp, ok := e.specs[name]
	if !ok {
		panic(fmt.Sprintf("core: unknown specification %s", name))
	}
	return sp
}

// Names returns the loaded specification names in load order.
func (e *Env) Names() []string {
	out := make([]string, len(e.order))
	copy(out, e.order)
	return out
}

// SortedNames returns the loaded specification names sorted.
func (e *Env) SortedNames() []string {
	out := e.Names()
	sort.Strings(out)
	return out
}

// System returns a (cached) rewrite system for the named specification
// with the default innermost strategy.
func (e *Env) System(name string) (*rewrite.System, error) {
	return e.SystemWithStrategy(name, rewrite.Innermost)
}

// SystemWithStrategy returns a (cached) rewrite system with the given
// strategy. Compiling a specification (building rules and the head-symbol
// index) happens once per (spec, strategy); repeated CLI commands and
// checkers reuse the cached system.
func (e *Env) SystemWithStrategy(name string, st rewrite.Strategy) (*rewrite.System, error) {
	key := sysKey{name, st}
	e.sysMu.Lock()
	defer e.sysMu.Unlock()
	if sys, ok := e.systems[key]; ok {
		return sys, nil
	}
	sp, ok := e.specs[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown specification %s", name)
	}
	sys := rewrite.New(sp, rewrite.WithStrategy(st))
	e.systems[key] = sys
	return sys, nil
}

// Compiled returns the systems compiled so far, for every spec and
// strategy, in no particular order; it compiles nothing.
func (e *Env) Compiled() []*rewrite.System {
	e.sysMu.Lock()
	defer e.sysMu.Unlock()
	out := make([]*rewrite.System, 0, len(e.systems))
	for _, sys := range e.systems {
		out = append(out, sys)
	}
	return out
}

// ParseTerm parses and sort-checks a ground term against the named
// specification, without evaluating it.
func (e *Env) ParseTerm(specName, src string) (*term.Term, error) {
	sp, ok := e.specs[specName]
	if !ok {
		return nil, fmt.Errorf("core: unknown specification %s", specName)
	}
	expr, err := lang.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return sema.CheckGroundExpr(sp, expr, "")
}

// ParseTermAs parses and sort-checks a ground term against the named
// specification with an expected root sort. The sort disambiguates bare
// atom literals and error values, which is what lets persisted
// normal-form text (whose root sort was recorded at write time) be
// parsed back into a term at boot.
func (e *Env) ParseTermAs(specName, src string, expected sig.Sort) (*term.Term, error) {
	sp, ok := e.specs[specName]
	if !ok {
		return nil, fmt.Errorf("core: unknown specification %s", specName)
	}
	expr, err := lang.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return sema.CheckGroundExpr(sp, expr, expected)
}

// ParseTermWithVars parses and sort-checks a term that may mention the
// given variables (name -> sort).
func (e *Env) ParseTermWithVars(specName, src string, vars map[string]sig.Sort) (*term.Term, error) {
	sp, ok := e.specs[specName]
	if !ok {
		return nil, fmt.Errorf("core: unknown specification %s", specName)
	}
	expr, err := lang.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return sema.CheckExprWithVars(sp, expr, vars, "")
}

// Eval parses a ground term and normalizes it in the named specification.
func (e *Env) Eval(specName, src string) (*term.Term, error) {
	t, err := e.ParseTerm(specName, src)
	if err != nil {
		return nil, err
	}
	sys, err := e.System(specName)
	if err != nil {
		return nil, err
	}
	return sys.Normalize(t)
}

// MustEval is Eval for tests and examples where failure is a bug.
func (e *Env) MustEval(specName, src string) *term.Term {
	t, err := e.Eval(specName, src)
	if err != nil {
		panic(fmt.Sprintf("core: eval %q in %s: %v", src, specName, err))
	}
	return t
}

// EvalTerm normalizes an already-built term in the named specification.
func (e *Env) EvalTerm(specName string, t *term.Term) (*term.Term, error) {
	sys, err := e.System(specName)
	if err != nil {
		return nil, err
	}
	return sys.Normalize(t)
}

// Equal parses and normalizes two ground terms in the named specification
// and reports whether they reach the same normal form — the working notion
// of "denote the same abstract value" for ground terms.
func (e *Env) Equal(specName, a, b string) (bool, error) {
	ta, err := e.Eval(specName, a)
	if err != nil {
		return false, err
	}
	tb, err := e.Eval(specName, b)
	if err != nil {
		return false, err
	}
	return ta.Equal(tb), nil
}

// Trace evaluates a ground term, invoking f on every rewrite step. A fresh
// uncached system is used so tracing does not pollute the cache.
func (e *Env) Trace(specName, src string, f func(rewrite.TraceStep)) (*term.Term, error) {
	sp, ok := e.specs[specName]
	if !ok {
		return nil, fmt.Errorf("core: unknown specification %s", specName)
	}
	t, err := e.ParseTerm(specName, src)
	if err != nil {
		return nil, err
	}
	sys := rewrite.New(sp, rewrite.WithTrace(f))
	return sys.Normalize(t)
}

// ParseAxiomSide is a helper for tools that accept textual equations
// (assumptions, Φ rules): it parses src with the variable environment and
// expected sort.
func ParseAxiomSide(sp *spec.Spec, src string, vars map[string]sig.Sort, expected sig.Sort) (*term.Term, error) {
	expr, err := lang.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return sema.CheckExprWithVars(sp, expr, vars, expected)
}

// Instantiate applies a variable assignment to a term.
func Instantiate(t *term.Term, assignment map[string]*term.Term) *term.Term {
	s := subst.Subst(assignment)
	return s.Apply(t)
}

// ParseFile exposes parsing without checking (used by the CLI to report
// syntax errors separately from semantic ones).
func ParseFile(src string) (*ast.File, error) { return lang.Parse(src) }
