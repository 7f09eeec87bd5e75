// Package subst implements substitutions over the term algebra, together
// with the two matching problems the framework needs:
//
//   - one-way pattern matching (used by the rewrite engine to apply an
//     axiom left-to-right);
//   - syntactic unification (used by the consistency checker to compute
//     critical pairs between axiom left-hand sides).
//
// Matching is performed modulo the paper's error convention: the error
// value matches only the literal error pattern, never an operation or
// variable pattern of the same sort — error is handled by the engine's
// strictness rule, not by axioms.
package subst

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"algspec/internal/term"
)

// Subst maps variable names to terms. The zero value is not usable;
// call New.
type Subst map[string]*term.Term

// New returns an empty substitution.
func New() Subst { return make(Subst) }

// Bind records v ↦ t, failing if v is already bound to a different term.
func (s Subst) Bind(v string, t *term.Term) error {
	if old, ok := s[v]; ok {
		if !old.Equal(t) {
			return fmt.Errorf("subst: variable %s bound to both %s and %s", v, old, t)
		}
		return nil
	}
	s[v] = t
	return nil
}

// Apply replaces every variable in t that the substitution binds.
// Unbound variables are left in place. Subterms without bound variables
// are shared, not copied.
func (s Subst) Apply(t *term.Term) *term.Term { return s.ApplyIn(nil, t) }

// ApplyIn is Apply building every rebuilt node through the interner when
// in is non-nil: applying a substitution of interned terms to an
// interned pattern then yields a fully canonical (hash-consed) result.
func (s Subst) ApplyIn(in *term.Interner, t *term.Term) *term.Term {
	switch t.Kind {
	case term.Var:
		if b, ok := s[t.Sym]; ok {
			return b
		}
		return t
	case term.Atom, term.Err:
		return t
	default:
		changed := false
		args := make([]*term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = s.ApplyIn(in, a)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			return t
		}
		if in != nil {
			return in.OpTerms(t.Sym, t.Sort, args)
		}
		return &term.Term{Kind: t.Kind, Sym: t.Sym, Sort: t.Sort, Args: args}
	}
}

// Domain returns the bound variable names, sorted.
func (s Subst) Domain() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the substitution deterministically, e.g. {q ↦ new, i ↦ 'x}.
func (s Subst) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range s.Domain() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s -> %s", k, s[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Match attempts to match pattern against t, extending the given
// substitution. Variables occur only in the pattern; any variables in t
// are treated as constants (this is what critical-pair computation and
// coverage analysis need). Matching respects sorts: a pattern variable of
// sort S matches only terms of sort S. On failure the substitution may be
// partially extended; callers that need rollback should pass a clone.
func Match(pattern, t *term.Term, s Subst) bool {
	switch pattern.Kind {
	case term.Var:
		if pattern.Sort != t.Sort && t.Kind != term.Err {
			return false
		}
		if t.Kind == term.Err {
			// error is never captured by a variable: strictness is the
			// engine's job, and letting axioms capture error would let
			// e.g. remove(add(q,i)) fire on remove(add(error,'x)).
			return false
		}
		return s.Bind(pattern.Sym, t) == nil
	case term.Err:
		return t.Kind == term.Err
	case term.Atom:
		return t.Kind == term.Atom && t.Sym == pattern.Sym && t.Sort == pattern.Sort
	default:
		if t.Kind != term.Op || t.Sym != pattern.Sym || len(t.Args) != len(pattern.Args) {
			return false
		}
		for i := range pattern.Args {
			if !Match(pattern.Args[i], t.Args[i], s) {
				return false
			}
		}
		return true
	}
}

// TryMatch is Match with fresh-substitution semantics: it returns the
// matcher on success and nil on failure, never mutating its inputs.
func TryMatch(pattern, t *term.Term) Subst {
	s := New()
	if Match(pattern, t, s) {
		return s
	}
	return nil
}

// Unify computes a most general unifier of a and b, treating variables in
// both terms as unifiable. It returns nil and false when no unifier
// exists. Errors unify only with errors and with variables of any sort
// (a variable can be instantiated to error during unification because
// critical-pair analysis must consider error-producing instances).
func Unify(a, b *term.Term) (Subst, bool) {
	s := New()
	if unify(a, b, s) {
		// Fully resolve bindings so the result is idempotent.
		out := New()
		for k, v := range s {
			out[k] = resolve(v, s)
		}
		return out, true
	}
	return nil, false
}

func unify(a, b *term.Term, s Subst) bool {
	a = walk(a, s)
	b = walk(b, s)
	switch {
	case a.Kind == term.Var:
		return bindVar(a, b, s)
	case b.Kind == term.Var:
		return bindVar(b, a, s)
	case a.Kind == term.Err || b.Kind == term.Err:
		return a.Kind == term.Err && b.Kind == term.Err
	case a.Kind == term.Atom || b.Kind == term.Atom:
		return a.Kind == term.Atom && b.Kind == term.Atom &&
			a.Sym == b.Sym && a.Sort == b.Sort
	default:
		if a.Sym != b.Sym || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !unify(a.Args[i], b.Args[i], s) {
				return false
			}
		}
		return true
	}
}

func bindVar(v, t *term.Term, s Subst) bool {
	if t.Kind == term.Var && t.Sym == v.Sym && t.Sort == v.Sort {
		return true
	}
	if t.Kind != term.Err && v.Sort != t.Sort {
		return false
	}
	if occurs(v.Sym, t, s) {
		return false
	}
	s[v.Sym] = t
	return true
}

func walk(t *term.Term, s Subst) *term.Term {
	for t.Kind == term.Var {
		b, ok := s[t.Sym]
		if !ok {
			return t
		}
		t = b
	}
	return t
}

func occurs(name string, t *term.Term, s Subst) bool {
	t = walk(t, s)
	if t.Kind == term.Var {
		return t.Sym == name
	}
	for _, a := range t.Args {
		if occurs(name, a, s) {
			return true
		}
	}
	return false
}

func resolve(t *term.Term, s Subst) *term.Term {
	t = walk(t, s)
	if len(t.Args) == 0 {
		return t
	}
	args := make([]*term.Term, len(t.Args))
	for i, a := range t.Args {
		args[i] = resolve(a, s)
	}
	return &term.Term{Kind: t.Kind, Sym: t.Sym, Sort: t.Sort, Args: args}
}

// RenameApart returns a copy of t whose variables are renamed with the
// given suffix index so that two axioms can be unified without accidental
// variable capture (x becomes x#1 etc.).
func RenameApart(t *term.Term, idx int) *term.Term {
	suffix := "#" + strconv.Itoa(idx)
	return t.Rename(func(name string) string { return name + suffix })
}
