// Scratch sets: the machine tier's working memory, shared by the whole
// process. A machine-tier normalization needs an arena for its
// intermediate terms, a canon cache for its Canon boundary and a
// register stack for its match frames, all dead once the normal form is
// interned, so a System borrows a set for the length of a call instead
// of owning one, and a fork allocates nothing but itself. One list
// serves every program, so the memory held idle is a few sets however
// many specifications are compiled. It is not a sync.Pool: a GC cycle
// empties a pool, and with it the canon caches' hits.
//
// A set belongs to one normalization at a time. The list sits under one
// mutex, taken twice per borrowed call; NormalizeAll holds one set per
// worker for its whole batch instead.
package rewrite

import (
	"sync"

	"algspec/internal/term"
)

const (
	// maxFreeSets bounds the free list; a set returned to a full list is
	// dropped.
	maxFreeSets = 8
	// maxPooledRegs bounds the register stack a pooled set keeps. A
	// divergence that builds a term nests a frame per step, and the set
	// must not carry that high-water stack into the next normalization.
	maxPooledRegs = 1 << 10
)

// scratchSet is one machine-tier normalization's working memory.
// regStack is the machine's register stack (a ruled operation's children
// are even evaluated directly into its frame — evalBuild); arena is the
// scratch-term allocator, reset at every outermost Canon boundary;
// canonCache memoizes that boundary's interning.
type scratchSet struct {
	regStack   []*term.Term
	arena      *term.Arena
	canonCache *term.CanonCache
}

// freeSets is the process-wide free list of scratch sets.
var freeSets = struct {
	mu   sync.Mutex
	sets []scratchSet
}{sets: make([]scratchSet, 0, maxFreeSets)}

// borrowScratch makes s hold a scratch set: the most recently returned
// one, or a fresh one when the list is empty.
func (s *System) borrowScratch() {
	freeSets.mu.Lock()
	if n := len(freeSets.sets); n > 0 {
		s.scratchSet = freeSets.sets[n-1]
		freeSets.sets[n-1] = scratchSet{}
		freeSets.sets = freeSets.sets[:n-1]
		freeSets.mu.Unlock()
		return
	}
	freeSets.mu.Unlock()
	s.scratchSet = scratchSet{arena: term.NewArena(), canonCache: term.NewCanonCache()}
}

// returnScratch gives back the set s holds. Its arena was reset by a
// successful normalization or detached by a failed one, so no chunk an
// error value may reference (ErrFuel.Last) is ever handed out again. A
// set that grew past its bounds — more than one arena chunk of either
// kind, or a register or canon stack past its fixed length — is dropped
// instead, so one huge normalization leaves no high-water memory behind.
func (s *System) returnScratch() {
	set := s.scratchSet
	s.scratchSet = scratchSet{}
	if set.grown() {
		return
	}
	freeSets.mu.Lock()
	if len(freeSets.sets) < maxFreeSets {
		freeSets.sets = append(freeSets.sets, set)
	}
	freeSets.mu.Unlock()
}

// grown reports whether the set is past its bounds.
func (set scratchSet) grown() bool {
	return set.arena.Grown() || set.canonCache.Grown() || len(set.regStack) > maxPooledRegs
}
