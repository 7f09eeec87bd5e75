package rewrite

// Hooks into the scratch free list for the external tests, which cannot
// live in this package: the specs they load come through core, which
// imports rewrite.

const (
	MaxFreeSets   = maxFreeSets
	MaxPooledRegs = maxPooledRegs
)

// FreeSets reports how many sets the free list holds and how many of
// them are past their bounds.
func FreeSets() (n, oversized int) {
	freeSets.mu.Lock()
	defer freeSets.mu.Unlock()
	for _, set := range freeSets.sets {
		if set.grown() {
			oversized++
		}
	}
	return len(freeSets.sets), oversized
}

// HoldScratch and ReturnScratch keep a scratch set on s across Normalize
// calls, as NormalizeAll does, so a test can inspect how far a call grew
// it (HeldScratch: whether the arena outgrew one chunk, and the register
// stack's length).
func (s *System) HoldScratch()   { s.borrowScratch() }
func (s *System) ReturnScratch() { s.returnScratch() }
func (s *System) HeldScratch() (arenaGrown bool, regs int) {
	return s.arena.Grown(), len(s.regStack)
}
