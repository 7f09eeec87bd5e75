// Package term implements the term algebra underlying algebraic
// specifications: the words of the heterogeneous algebra built from
// operation applications, typed free variables (the paper's "q" and "i"),
// atom literals, and the distinguished error value whose defining property
// is strictness — "the value of any operation applied to an argument list
// containing error is error" (CACM 20(6) §3).
//
// The conditional used throughout the paper's axioms
// ("if IS_EMPTY?(q) then i else FRONT(q)") is represented as a term with
// the reserved head IfOp; the rewrite engine gives it its usual lazy
// semantics.
package term

import (
	"fmt"
	"strings"
	"sync/atomic"
	"unsafe"

	"algspec/internal/sig"
)

// Kind discriminates the four term shapes.
type Kind uint8

const (
	// Op is an operation application f(t1,...,tn); constants are nullary
	// applications.
	Op Kind = iota
	// Var is a typed free variable, used in axioms.
	Var
	// Atom is a literal constant of an atom sort, written 'x in the
	// surface syntax. Atoms are self-interpreting: two atoms are equal
	// exactly when their spellings are equal (the engine's native
	// realization of IS_SAME?).
	Atom
	// Err is the distinguished error value.
	Err
)

// Reserved head symbols.
const (
	// IfOp is the reserved head of the conditional special form.
	// Args are [cond, then, else].
	IfOp = "if"
	// ErrName is the spelling of the error value.
	ErrName = "error"
	// TrueOp and FalseOp are the boolean constants every specification
	// may rely on (the Bool specification declares them).
	TrueOp  = "true"
	FalseOp = "false"
)

// Term is an immutable first-order term. Clients must not mutate a Term
// after construction; the engine shares subterms freely.
type Term struct {
	Kind Kind
	// Sym is the operation name (Kind Op), variable name (Kind Var), or
	// atom spelling without the quote (Kind Atom). Empty for Err.
	Sym string
	// Sort is the sort of the whole term. For Err the sort records the
	// context the error arose in; error terms of different sorts are
	// still equal, matching the paper's single distinguished value.
	Sort sig.Sort
	Args []*Term

	// owner is the Interner this term is a canonical node of, or nil for
	// terms built with the New* constructors or struct literals. Within
	// one interner, structural equality is pointer equality (errors
	// excepted), which Equal exploits.
	owner *Interner
	// ground caches IsGround for interned nodes (computed once at intern
	// time from the canonical arguments).
	ground bool
	// scratch marks a node allocated from an Arena: engine-private,
	// mutable by its owning engine, and never valid outside the
	// normalization that built it. The rewrite engine must Canon a result
	// before returning it; Scratch exposes the flag so tests (and the
	// Canon boundary itself) can enforce that no scratch node escapes.
	scratch bool
	// hint is an opaque per-node cache for the engine that owns a scratch
	// node (the rewrite machine stores a precomputed dispatch index here
	// to skip a per-node map lookup). Zero means no hint; interned terms
	// never carry one.
	hint uint32
	// shash caches StableHash for interned nodes, computed once at
	// intern time from the canonical arguments' cached hashes. Zero for
	// non-interned terms (which recompute per call).
	shash uint64
	// nfTag is an advisory normal-form mark: a rewrite system stamps its
	// generation token here once the term is known to be its own normal
	// form under that system's (immutable) rule program. Accessed
	// atomically because parallel workers share subterm spines; a stale
	// or foreign token is merely a cache miss, never an error. Only
	// interned terms are ever stamped: scratch nodes are recycled by
	// Arena.Reset, so a tag on one would outlive the term it described.
	nfTag uint32
}

// Hint reads the engine hint cached on a scratch node (see SetHint).
func (t *Term) Hint() uint32 { return t.hint }

// SetHint caches an opaque engine value on a scratch node. Only the
// engine owning the node's Arena may call it; interned terms are shared
// and must never be hinted.
func (t *Term) SetHint(h uint32) { t.hint = h }

// Scratch reports whether the node was allocated from an Arena and is
// therefore engine-private (see Arena). Interned terms and terms built
// with the New* constructors are never scratch.
func (t *Term) Scratch() bool { return t.scratch }

// NormalTag reads the advisory normal-form token (see MarkNormalTag).
func (t *Term) NormalTag() uint32 { return atomic.LoadUint32(&t.nfTag) }

// MarkNormalTag stamps the advisory normal-form token. Only the rewrite
// engine should call this, with a token unique to one compiled system.
func (t *Term) MarkNormalTag(tag uint32) { atomic.StoreUint32(&t.nfTag, tag) }

// NewOp builds an operation application.
func NewOp(name string, sort sig.Sort, args ...*Term) *Term {
	return &Term{Kind: Op, Sym: name, Sort: sort, Args: args}
}

// NewVar builds a typed free variable.
func NewVar(name string, sort sig.Sort) *Term {
	return &Term{Kind: Var, Sym: name, Sort: sort}
}

// NewAtom builds an atom literal of the given atom sort.
func NewAtom(spelling string, sort sig.Sort) *Term {
	return &Term{Kind: Atom, Sym: spelling, Sort: sort}
}

// NewErr builds the distinguished error value at the given sort.
func NewErr(sort sig.Sort) *Term {
	return &Term{Kind: Err, Sym: ErrName, Sort: sort}
}

// NewIf builds a conditional term; its sort is the sort of the branches.
func NewIf(cond, then, els *Term) *Term {
	return &Term{Kind: Op, Sym: IfOp, Sort: then.Sort, Args: []*Term{cond, then, els}}
}

// True and False build the boolean constants.
func True() *Term  { return NewOp(TrueOp, sig.BoolSort) }
func False() *Term { return NewOp(FalseOp, sig.BoolSort) }

// Bool builds true or false from a Go bool.
func Bool(b bool) *Term {
	if b {
		return True()
	}
	return False()
}

// IsErr reports whether the term is the error value.
func (t *Term) IsErr() bool { return t.Kind == Err }

// IsIf reports whether the term is a conditional.
func (t *Term) IsIf() bool { return t.Kind == Op && t.Sym == IfOp }

// IsTrue and IsFalse report whether the term is the respective boolean
// constant.
func (t *Term) IsTrue() bool  { return t.Kind == Op && t.Sym == TrueOp && len(t.Args) == 0 }
func (t *Term) IsFalse() bool { return t.Kind == Op && t.Sym == FalseOp && len(t.Args) == 0 }

// Equal reports structural equality. Error terms are equal regardless of
// the sort they were created at: the paper has a single error value.
// When both terms are canonical nodes of the same Interner, equality is
// decided by pointer comparison in O(1).
func (t *Term) Equal(u *Term) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil {
		return false
	}
	if t.Kind != u.Kind {
		return false
	}
	if t.Kind == Err {
		return true
	}
	if t.owner != nil && t.owner == u.owner {
		// Same interner, different pointers: structurally distinct.
		return false
	}
	switch t.Kind {
	case Var, Atom:
		return t.Sym == u.Sym && t.Sort == u.Sort
	default:
		if t.Sym != u.Sym || len(t.Args) != len(u.Args) {
			return false
		}
		for i := range t.Args {
			if !t.Args[i].Equal(u.Args[i]) {
				return false
			}
		}
		return true
	}
}

// StableHash returns a structural hash consistent with Equal that is
// stable across processes and executions: it mixes only the node's own
// bytes (kind, symbol, and — for variables and atoms — sort) with its
// children's stable hashes, never pointers or map iteration order. The
// cluster router derives shard keys from it, so two replicas (or a
// router and a replica) computing the key for the same term must agree
// even though their interners hand out different pointers. For interned
// terms the value is computed once at intern time and answered in O(1);
// other terms pay one structural walk per call.
func (t *Term) StableHash() uint64 {
	if t.owner != nil {
		return t.shash
	}
	return stableHashTerm(t)
}

// stableHashNode combines a node's own bytes with already-computed
// child hashes with an FNV-1a-style mix. Err nodes all hash alike and
// Op nodes ignore sort, like Equal does.
func stableHashNode(k Kind, sym string, sort sig.Sort, childHashes []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(k)) * prime64
	if k != Err {
		for i := 0; i < len(sym); i++ {
			h = (h ^ uint64(sym[i])) * prime64
		}
		h = (h ^ 0xfe) * prime64
		if k == Var || k == Atom {
			for i := 0; i < len(sort); i++ {
				h = (h ^ uint64(sort[i])) * prime64
			}
		}
	}
	for _, ch := range childHashes {
		h = (h ^ ch) * prime64
		h ^= h >> 32
	}
	return h
}

func stableHashTerm(t *Term) uint64 {
	if t.owner != nil {
		return t.shash
	}
	var childHashes []uint64
	if len(t.Args) > 0 {
		childHashes = make([]uint64, len(t.Args))
		for i, a := range t.Args {
			childHashes[i] = stableHashTerm(a)
		}
	}
	return stableHashNode(t.Kind, t.Sym, t.Sort, childHashes)
}

// Size returns the number of nodes in the term.
func (t *Term) Size() int {
	n := 1
	for _, a := range t.Args {
		n += a.Size()
	}
	return n
}

// Depth returns the height of the term; constants have depth 1.
func (t *Term) Depth() int {
	d := 0
	for _, a := range t.Args {
		if ad := a.Depth(); ad > d {
			d = ad
		}
	}
	return d + 1
}

// IsGround reports whether the term contains no variables. For interned
// terms the answer is cached at intern time and returned in O(1).
func (t *Term) IsGround() bool {
	if t.owner != nil {
		return t.ground
	}
	if t.Kind == Var {
		return false
	}
	for _, a := range t.Args {
		if !a.IsGround() {
			return false
		}
	}
	return true
}

// Vars returns the distinct variables of the term in first-occurrence
// order (leftmost-innermost).
func (t *Term) Vars() []*Term {
	var out []*Term
	seen := make(map[string]bool)
	t.Walk(func(u *Term) bool {
		if u.Kind == Var && !seen[u.Sym] {
			seen[u.Sym] = true
			out = append(out, u)
		}
		return true
	})
	return out
}

// HasVar reports whether the named variable occurs in the term.
func (t *Term) HasVar(name string) bool {
	found := false
	t.Walk(func(u *Term) bool {
		if u.Kind == Var && u.Sym == name {
			found = true
			return false
		}
		return !found
	})
	return found
}

// Walk visits the term preorder. If f returns false the walk does not
// descend into the current term's arguments.
func (t *Term) Walk(f func(*Term) bool) {
	if !f(t) {
		return
	}
	for _, a := range t.Args {
		a.Walk(f)
	}
}

// Subterms returns every subterm, preorder, including t itself.
func (t *Term) Subterms() []*Term {
	var out []*Term
	t.Walk(func(u *Term) bool {
		out = append(out, u)
		return true
	})
	return out
}

// Path addresses a subterm by argument indices from the root.
type Path []int

// At returns the subterm at the path, or nil if the path is invalid.
func (t *Term) At(p Path) *Term {
	cur := t
	for _, i := range p {
		if cur == nil || i < 0 || i >= len(cur.Args) {
			return nil
		}
		cur = cur.Args[i]
	}
	return cur
}

// ReplaceAt returns a copy of t with the subterm at path p replaced by u.
// Unaffected subtrees are shared, not copied. An invalid path returns nil.
func (t *Term) ReplaceAt(p Path, u *Term) *Term {
	if len(p) == 0 {
		return u
	}
	i := p[0]
	if i < 0 || i >= len(t.Args) {
		return nil
	}
	child := t.Args[i].ReplaceAt(p[1:], u)
	if child == nil {
		return nil
	}
	args := make([]*Term, len(t.Args))
	copy(args, t.Args)
	args[i] = child
	return &Term{Kind: t.Kind, Sym: t.Sym, Sort: t.Sort, Args: args}
}

// Positions returns the paths of all subterms, preorder. The root is the
// empty path.
func (t *Term) Positions() []Path {
	var out []Path
	var rec func(u *Term, p Path)
	rec = func(u *Term, p Path) {
		cp := make(Path, len(p))
		copy(cp, p)
		out = append(out, cp)
		for i, a := range u.Args {
			rec(a, append(p, i))
		}
	}
	rec(t, nil)
	return out
}

// Rename returns a copy of the term with every variable name passed
// through f (sharing is broken only along paths containing variables).
func (t *Term) Rename(f func(string) string) *Term {
	switch t.Kind {
	case Var:
		return NewVar(f(t.Sym), t.Sort)
	case Atom, Err:
		return t
	default:
		changed := false
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = a.Rename(f)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			return t
		}
		return &Term{Kind: t.Kind, Sym: t.Sym, Sort: t.Sort, Args: args}
	}
}

// String renders the term in the surface syntax: f(a, b), 'atom, error,
// variables bare, and conditionals as "if c then a else b".
func (t *Term) String() string {
	n := t.printedLen()
	if n == 0 {
		return ""
	}
	b := t.AppendText(make([]byte, 0, n))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendText appends the term's String text to dst, so a caller that
// writes the text into a larger buffer need not build the string.
func (t *Term) AppendText(dst []byte) []byte {
	switch t.Kind {
	case Err:
		return append(dst, ErrName...)
	case Var:
		return append(dst, t.Sym...)
	case Atom:
		return append(append(dst, '\''), t.Sym...)
	}
	if t.IsIf() && len(t.Args) == 3 {
		dst = t.Args[0].AppendText(append(dst, "if "...))
		dst = t.Args[1].AppendText(append(dst, " then "...))
		return t.Args[2].AppendText(append(dst, " else "...))
	}
	dst = append(dst, t.Sym...)
	if len(t.Args) == 0 {
		return dst
	}
	dst = append(dst, '(')
	for i, a := range t.Args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = a.AppendText(dst)
	}
	return append(dst, ')')
}

// printedLen is the length of the text AppendText produces, so String
// allocates its bytes once.
func (t *Term) printedLen() int {
	switch t.Kind {
	case Err:
		return len(ErrName)
	case Var:
		return len(t.Sym)
	case Atom:
		return 1 + len(t.Sym)
	}
	if t.IsIf() && len(t.Args) == 3 {
		return len("if  then  else ") + t.Args[0].printedLen() + t.Args[1].printedLen() + t.Args[2].printedLen()
	}
	n := len(t.Sym)
	if len(t.Args) > 0 {
		n += len("()") + len(", ")*(len(t.Args)-1)
	}
	for _, a := range t.Args {
		n += a.printedLen()
	}
	return n
}

// GoString renders the term unambiguously for debugging, with sorts.
func (t *Term) GoString() string {
	switch t.Kind {
	case Err:
		return fmt.Sprintf("error:%s", t.Sort)
	case Var:
		return fmt.Sprintf("%s:%s", t.Sym, t.Sort)
	case Atom:
		return fmt.Sprintf("'%s:%s", t.Sym, t.Sort)
	default:
		if len(t.Args) == 0 {
			return fmt.Sprintf("%s:%s", t.Sym, t.Sort)
		}
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = a.GoString()
		}
		return fmt.Sprintf("%s(%s):%s", t.Sym, strings.Join(parts, ", "), t.Sort)
	}
}

// Compare imposes a total order on terms (by kind, then symbol, then
// args). It exists so reports and golden tests can sort term lists
// deterministically.
func Compare(a, b *Term) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a.Kind == Err {
		return 0
	}
	if c := strings.Compare(a.Sym, b.Sym); c != 0 {
		return c
	}
	if c := len(a.Args) - len(b.Args); c != 0 {
		return c
	}
	for i := range a.Args {
		if c := Compare(a.Args[i], b.Args[i]); c != 0 {
			return c
		}
	}
	return strings.Compare(string(a.Sort), string(b.Sort))
}
