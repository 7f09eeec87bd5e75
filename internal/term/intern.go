// Hash-consing for the term algebra. An Interner owns a universe of
// canonical ("interned") terms in which structural equality coincides
// with pointer equality: interning the same shape twice returns the same
// *Term. This gives the rewrite engine an O(1) Equal on its hot path and
// a collision-proof node identity: a raw structural hash can collide, a
// canonical pointer cannot.
//
// Interned terms are immutable like all terms, so they may be shared
// freely between goroutines; the Interner itself is safe for concurrent
// use and is shared by the Systems a parallel checker driver forks.
package term

import (
	"strings"
	"sync"
	"unsafe"

	"algspec/internal/sig"
)

// Interner hash-conses terms: canonical nodes are unique per structure,
// so two terms interned by the same Interner are structurally equal
// exactly when they are pointer-equal. The zero value is not usable;
// call NewInterner. All methods are safe for concurrent use.
type Interner struct {
	mu      sync.RWMutex
	buckets map[uint64][]*Term
	n       int
	// hashNode computes the bucket key of a prospective node whose
	// arguments are already canonical. Overridable by tests to force
	// bucket collisions; collisions are always resolved by the structural
	// scan in lookup, so a colliding hash degrades speed, never
	// correctness.
	hashNode func(k Kind, sym string, sort sig.Sort, args []*Term) uint64
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		buckets:  make(map[uint64][]*Term),
		hashNode: defaultNodeHash,
	}
}

// defaultNodeHash is an FNV-1a over the node's own fields plus the
// identities of its (canonical) arguments. Argument pointers are a sound
// hash input because canonical arguments are unique per structure.
func defaultNodeHash(k Kind, sym string, sort sig.Sort, args []*Term) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(k)) * prime64
	for i := 0; i < len(sym); i++ {
		h = (h ^ uint64(sym[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	if k != Err { // all errors hash (and compare) alike at the node level
		for i := 0; i < len(sort); i++ {
			h = (h ^ uint64(sort[i])) * prime64
		}
	}
	for _, a := range args {
		// One multiplicative mix per (canonical, unique-per-structure)
		// child pointer: cheaper than byte-at-a-time FNV and still
		// well-distributed — collisions only degrade to the structural
		// scan in lookup.
		h = (h ^ uintptr2u64(a)) * prime64
		h ^= h >> 32
	}
	return h
}

// uintptr2u64 widens a term pointer to a hashable integer. The pointer
// value is the identity of a canonical node; it is only ever used
// in-process and never persisted.
func uintptr2u64(t *Term) uint64 {
	return uint64(uintptr(unsafe.Pointer(t)))
}

// nodeEq reports whether an existing canonical node has exactly the given
// shape. Arguments are compared by pointer: they are canonical, so
// pointer equality is structural equality.
func nodeEq(t *Term, k Kind, sym string, sort sig.Sort, args []*Term) bool {
	if t.Kind != k || len(t.Args) != len(args) {
		return false
	}
	if k != Err && (t.Sym != sym || t.Sort != sort) {
		return false
	}
	for i := range args {
		if t.Args[i] != args[i] {
			return false
		}
	}
	return true
}

// node interns one term node whose arguments are already canonical in
// this interner. When owned is true the args slice is transferred to the
// interner; otherwise it is copied before being retained.
func (in *Interner) node(k Kind, sym string, sort sig.Sort, args []*Term, owned bool) *Term {
	h := in.hashNode(k, sym, sort, args)
	in.mu.RLock()
	for _, c := range in.buckets[h] {
		if nodeEq(c, k, sym, sort, args) {
			in.mu.RUnlock()
			return c
		}
	}
	in.mu.RUnlock()

	in.mu.Lock()
	defer in.mu.Unlock()
	// Re-check: another goroutine may have interned the node between the
	// read unlock and the write lock.
	for _, c := range in.buckets[h] {
		if nodeEq(c, k, sym, sort, args) {
			return c
		}
	}
	if len(args) > 0 && !owned {
		cp := make([]*Term, len(args))
		copy(cp, args)
		args = cp
	}
	if k == Atom {
		// An atom's spelling usually arrives as a substring of the text
		// it was read from, a whole request body; the node outlives that
		// text, so it keeps a copy of just the spelling.
		sym = strings.Clone(sym)
	}
	ground := k != Var
	for _, a := range args {
		if !a.ground {
			ground = false
			break
		}
	}
	t := &Term{Kind: k, Sym: sym, Sort: sort, Args: args, owner: in, ground: ground,
		shash: stableHashCanon(k, sym, sort, args)}
	in.buckets[h] = append(in.buckets[h], t)
	in.n++
	return t
}

// stableHashCanon computes the cached StableHash of a new canonical
// node whose arguments are already canonical (so their own stable
// hashes are cached). One multiplicative mix per child, no allocation.
func stableHashCanon(k Kind, sym string, sort sig.Sort, args []*Term) uint64 {
	if len(args) == 0 {
		return stableHashNode(k, sym, sort, nil)
	}
	h := stableHashNode(k, sym, sort, nil)
	const prime64 = 1099511628211
	for _, a := range args {
		h = (h ^ a.shash) * prime64
		h ^= h >> 32
	}
	return h
}

// canonArgs returns a canonical version of args, reusing the input slice
// contents when every element is already canonical. The returned bool
// reports whether the result is a fresh slice the interner may own.
func (in *Interner) canonArgs(args []*Term) ([]*Term, bool) {
	for i, a := range args {
		if a.owner == in {
			continue
		}
		cp := make([]*Term, len(args))
		copy(cp, args[:i])
		for j := i; j < len(args); j++ {
			cp[j] = in.Canon(args[j])
		}
		return cp, true
	}
	return args, false
}

// Op interns an operation application. Arguments from other interners (or
// none) are canonicalized first.
func (in *Interner) Op(name string, sort sig.Sort, args ...*Term) *Term {
	ca, owned := in.canonArgs(args)
	return in.node(Op, name, sort, ca, owned)
}

// OpTerms is Op taking an argument slice the interner may retain; callers
// must not reuse the slice afterwards. It exists so bulk generators can
// intern without a defensive copy per term.
func (in *Interner) OpTerms(name string, sort sig.Sort, args []*Term) *Term {
	ca, _ := in.canonArgs(args)
	return in.node(Op, name, sort, ca, true)
}

// Var interns a typed free variable.
func (in *Interner) Var(name string, sort sig.Sort) *Term {
	return in.node(Var, name, sort, nil, true)
}

// Atom interns an atom literal.
func (in *Interner) Atom(spelling string, sort sig.Sort) *Term {
	return in.node(Atom, spelling, sort, nil, true)
}

// Err interns the distinguished error value. The paper has a single
// error value, so all error nodes collapse onto one canonical node per
// interner regardless of the sort the error arose at (the node keeps the
// sort it was first interned with).
func (in *Interner) Err(sort sig.Sort) *Term {
	return in.node(Err, ErrName, sort, nil, true)
}

// Canon returns the canonical interned equivalent of t, interning every
// subterm. Terms already owned by this interner are returned unchanged in
// O(1); that makes Canon cheap on rewrite hot paths where results are
// built from interned pieces.
func (in *Interner) Canon(t *Term) *Term {
	if t == nil {
		return nil
	}
	if t.owner == in {
		return t
	}
	if len(t.Args) == 0 {
		return in.node(t.Kind, t.Sym, t.Sort, nil, true)
	}
	args := make([]*Term, len(t.Args))
	for i, a := range t.Args {
		args[i] = in.Canon(a)
	}
	return in.node(t.Kind, t.Sym, t.Sort, args, true)
}

// CanonBatch is Canon for a whole engine result at once, through a
// CanonCache held by one goroutine (hence lock-free): repeat shapes
// short-circuit before touching the interner at all. The rewrite
// engine's compiled tier rebuilds largely the same normal-form spines
// every call, and a cache hit replaces lock + hash + bucket probe with
// one indexed load, an owner check and a structural verify.
func (in *Interner) CanonBatch(t *Term, cc *CanonCache) *Term {
	if t == nil || t.owner == in {
		return t
	}
	base := len(cc.stack)
	for _, a := range t.Args {
		if a.owner == in { // already canonical: skip the call
			cc.stack = append(cc.stack, a)
			continue
		}
		cc.stack = append(cc.stack, in.CanonBatch(a, cc))
	}
	args := cc.stack[base:]
	idx := cacheIndex(t.Kind, t.Sym, t.Sort, args)
	c := cc.tab[idx]
	if c == nil || c.owner != in || !nodeEq(c, t.Kind, t.Sym, t.Sort, args) {
		// Miss: intern through the interner's own locked path (which
		// copies args — the stack slice is reused) and remember the
		// canonical node for next time. Another interner's node is a miss
		// too: a leaf such as new carries no argument pointer that could
		// tell the two apart.
		c = in.node(t.Kind, t.Sym, t.Sort, args, false)
		cc.tab[idx] = c
	}
	cc.stack = cc.stack[:base]
	return c
}

const (
	// canonCacheSize is the entry count of a CanonCache (power of two).
	canonCacheSize = 2048
	// canonStackMax is the argument-stack capacity past which a cache
	// reports Grown.
	canonStackMax = 1 << 10
)

// CanonCache is a direct-mapped memo from node shape to canonical node,
// used by one goroutine at a time. The rewrite engine pools its caches
// across Systems, so one cache serves many interners in turn: a hit must
// belong to the calling interner and match structurally, so a collision,
// a stale slot or another interner's node can only cost a probe, never
// correctness. Canonical nodes are immortal, so a cached pointer can
// never dangle; it does keep its interner reachable until the slot is
// overwritten.
type CanonCache struct {
	tab [canonCacheSize]*Term
	// stack is the reusable canonical-argument scratch: each recursion
	// level parks its children here, so the walk allocates nothing on
	// the all-hits path (the buffer is retained and grows to the widest
	// term seen).
	stack []*Term
}

// NewCanonCache returns an empty cache.
func NewCanonCache() *CanonCache { return &CanonCache{} }

// Grown reports whether the argument stack has grown past canonStackMax
// entries, so that a pool of caches can drop one rather than keep a huge
// term's high-water stack.
func (cc *CanonCache) Grown() bool { return cap(cc.stack) > canonStackMax }

// cacheIndex hashes a node shape to a cache slot. It mixes the sym
// string's data pointer rather than its bytes: the engine passes the
// same string header for the same symbol on every rebuild, and a
// different-header same-content collision merely misses into the
// interner path.
func cacheIndex(k Kind, sym string, sort sig.Sort, args []*Term) int {
	const m = 0x9E3779B97F4A7C15
	h := (uint64(uintptr(unsafe.Pointer(unsafe.StringData(sym)))) + uint64(k)) * m
	for _, a := range args {
		h = (h ^ uintptr2u64(a)) * m
		h ^= h >> 29
	}
	_ = sort
	return int(h>>32) & (canonCacheSize - 1)
}

// Size returns the number of canonical nodes interned so far.
func (in *Interner) Size() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.n
}

// Interned reports whether t is a canonical node of this interner.
func (in *Interner) Interned(t *Term) bool { return t != nil && t.owner == in }
