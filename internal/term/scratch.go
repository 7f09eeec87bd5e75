// Arena is the scratch-term allocator behind the rewrite engine's
// compiled tier. Intermediate terms of a normalization are dead the
// moment the normal form is returned, so allocating them one GC object
// at a time (the interpreter's costume) wastes both allocator time and
// collector work. An Arena instead bump-allocates nodes and argument
// vectors out of reusable chunks; the engine builds every intermediate
// result here, mutates them in place where ownership rules allow, and
// interns only the final normal form (Interner.Canon) before handing it
// out. Reset then recycles every chunk for the next normalization.
//
// Ownership discipline — the scratch/interned boundary:
//
//   - a scratch node (Term.Scratch() == true) belongs to exactly one
//     Arena and therefore to exactly one normalization; it must never be
//     returned to a caller, stored in a memo, or stamped with an nfTag;
//   - scratch nodes may point at interned terms freely (the common case:
//     captured subterms of a redex are already canonical or were
//     normalized first), but nothing durable may point at a scratch node;
//   - Reset recycles chunk memory, so any scratch pointer held across a
//     Reset is a use-after-free bug; Detach is the escape hatch for
//     error paths that must surrender a scratch term to an error value —
//     it abandons the chunks instead of recycling them, trading a little
//     garbage for referential safety on a path that is cold by
//     definition.
//
// An Arena is not safe for concurrent use: the rewrite engine lends
// each one to a single normalization at a time.
package term

import "algspec/internal/sig"

const (
	arenaNodeChunk = 512  // Terms per node chunk
	arenaArgChunk  = 1024 // arg-slice capacity per pointer chunk
)

// Arena bump-allocates scratch terms. The zero value is ready to use.
type Arena struct {
	nodeChunks [][]Term
	argChunks  [][]*Term
	nc, ni     int // current node chunk / next free node index
	ac, ai     int // current arg chunk / next free pointer index
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// node hands out one scratch Term. The node may be recycled memory, so
// callers overwrite every field (the constructors below assign a whole
// struct literal for exactly that reason — a stale nfTag from a prior
// life would be read as "already normal").
func (a *Arena) node() *Term {
	if a.nc == len(a.nodeChunks) {
		a.nodeChunks = append(a.nodeChunks, make([]Term, arenaNodeChunk))
	}
	c := a.nodeChunks[a.nc]
	t := &c[a.ni]
	if a.ni++; a.ni == len(c) {
		a.nc++
		a.ni = 0
	}
	return t
}

// ArgSlice hands out an argument vector of length n from the pointer
// chunks (oversized requests fall back to the heap — they are as rare
// as 1024-ary operations).
func (a *Arena) ArgSlice(n int) []*Term {
	if n == 0 {
		return nil
	}
	if n > arenaArgChunk {
		return make([]*Term, n)
	}
	if a.ac < len(a.argChunks) && a.ai+n > len(a.argChunks[a.ac]) {
		a.ac++
		a.ai = 0
	}
	if a.ac == len(a.argChunks) {
		a.argChunks = append(a.argChunks, make([]*Term, arenaArgChunk))
	}
	c := a.argChunks[a.ac]
	s := c[a.ai : a.ai+n : a.ai+n]
	a.ai += n
	return s
}

// Op builds a scratch operation application. The args slice is retained
// (pass an ArgSlice or a slice the caller surrenders). Every field is
// assigned — nodes are recycled memory, and a stale nfTag or owner from
// a previous life must never survive into a new term. Pointer-carrying
// fields are assigned through setPtr/setArgs, which skip the store when
// the recycled slot already holds the identical value: a steady-state
// workload rebuilds the same scratch shapes into the same slots every
// cycle, and the skipped stores are skipped GC write barriers.
func (a *Arena) Op(sym string, sort sig.Sort, args []*Term) *Term {
	t := a.node()
	t.Kind = Op
	setPtr(&t.Sym, sym)
	setPtr(&t.Sort, sort)
	setArgs(t, args)
	if t.owner != nil {
		t.owner = nil
	}
	t.ground = false
	t.scratch = true
	t.hint = 0
	t.nfTag = 0
	return t
}

// setPtr stores s into *p unless it is already there. The equality
// check hits the pointer-identity fast path for the interned rule
// strings the engine passes, making the recycled-slot case branch-only.
func setPtr[T ~string](p *T, s T) {
	if *p != s {
		*p = s
	}
}

// setArgs replaces t's argument vector unless the recycled slot already
// holds the very same vector (same base, length and capacity).
func setArgs(t *Term, args []*Term) {
	if len(t.Args) != len(args) || cap(t.Args) != cap(args) ||
		(len(args) != 0 && &t.Args[0] != &args[0]) {
		t.Args = args
	}
}

// CopyOp builds a scratch copy of an operation node with a fresh,
// mutable argument vector — the copy-on-write step that turns a shared
// (interned or caller-owned) term into an engine-private one.
func (a *Arena) CopyOp(t *Term) *Term {
	args := a.ArgSlice(len(t.Args))
	copy(args, t.Args)
	return a.Op(t.Sym, t.Sort, args)
}

// Err builds the scratch error value at the given sort.
func (a *Arena) Err(sort sig.Sort) *Term {
	t := a.node()
	t.Kind = Err
	setPtr(&t.Sym, ErrName)
	setPtr(&t.Sort, sort)
	if t.Args != nil {
		t.Args = nil
	}
	if t.owner != nil {
		t.owner = nil
	}
	t.ground = false
	t.scratch = true
	t.hint = 0
	t.nfTag = 0
	return t
}

// If builds a scratch conditional with an explicit result sort.
func (a *Arena) If(sort sig.Sort, cond, then, els *Term) *Term {
	args := a.ArgSlice(3)
	args[0], args[1], args[2] = cond, then, els
	return a.Op(IfOp, sort, args)
}

// Reset recycles every chunk: all scratch terms handed out since the
// last Reset are dead and their memory is reused verbatim. Only call
// when nothing references the arena's terms any more — for the engine,
// after the normal form has been interned.
func (a *Arena) Reset() {
	a.nc, a.ni = 0, 0
	a.ac, a.ai = 0, 0
}

// Grown reports whether the arena holds more than one chunk of either
// kind, so that a pool of arenas can drop one rather than keep a large
// normalization's high-water memory.
func (a *Arena) Grown() bool { return len(a.nodeChunks) > 1 || len(a.argChunks) > 1 }

// Detach abandons the current chunks instead of recycling them: terms
// already handed out stay valid forever (ordinary GC memory), and the
// arena starts over with fresh chunks. Error paths use this when a
// scratch term escapes inside an error value (ErrFuel.Last), where a
// later Reset would otherwise scribble over it.
func (a *Arena) Detach() {
	a.nodeChunks, a.argChunks = nil, nil
	a.Reset()
}
