// Bindings is the rewrite engine's allocation-light substitution: axiom
// patterns bind a handful of variables, so a small slice with linear
// lookup beats a map on the matching hot path (no per-attempt map
// allocation, and failed matches — the overwhelming majority — allocate
// nothing at all when the caller reuses the buffer).
package subst

import (
	"algspec/internal/term"
)

// Binding is one variable binding in a Bindings list.
type Binding struct {
	Name string
	Term *term.Term
}

// Bindings is a substitution represented as a short slice. The zero
// value is ready to use; pass a previous result's [:0] to MatchBind to
// reuse its backing array across match attempts.
type Bindings []Binding

// Lookup returns the binding for the named variable.
func (b Bindings) Lookup(name string) (*term.Term, bool) {
	for i := range b {
		if b[i].Name == name {
			return b[i].Term, true
		}
	}
	return nil, false
}

// MatchBind matches pattern against t, appending bindings to buf and
// returning the extended slice. Semantics are identical to Match: one-way
// matching, sorts respected, and the error value is matched only by the
// literal error pattern (strictness is the engine's job, not the
// axioms'). On failure the returned slice may hold partial bindings; the
// caller reslices to [:0] before reuse.
func MatchBind(pattern, t *term.Term, buf Bindings) (Bindings, bool) {
	switch pattern.Kind {
	case term.Var:
		if t.Kind == term.Err {
			return buf, false
		}
		if pattern.Sort != t.Sort {
			return buf, false
		}
		if old, ok := buf.Lookup(pattern.Sym); ok {
			return buf, old.Equal(t)
		}
		return append(buf, Binding{Name: pattern.Sym, Term: t}), true
	case term.Err:
		return buf, t.Kind == term.Err
	case term.Atom:
		return buf, t.Kind == term.Atom && t.Sym == pattern.Sym && t.Sort == pattern.Sort
	default:
		if t.Kind != term.Op || t.Sym != pattern.Sym || len(t.Args) != len(pattern.Args) {
			return buf, false
		}
		var ok bool
		for i := range pattern.Args {
			if buf, ok = MatchBind(pattern.Args[i], t.Args[i], buf); !ok {
				return buf, false
			}
		}
		return buf, true
	}
}

// Build applies the bindings to t. Unbound variables are left in place
// and untouched subterms are shared, exactly like Subst.Apply.
func (b Bindings) Build(t *term.Term) *term.Term {
	switch t.Kind {
	case term.Var:
		if v, ok := b.Lookup(t.Sym); ok {
			return v
		}
		return t
	case term.Atom, term.Err:
		return t
	default:
		changed := false
		args := make([]*term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = b.Build(a)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			return t
		}
		return &term.Term{Kind: t.Kind, Sym: t.Sym, Sort: t.Sort, Args: args}
	}
}
