// Batch evaluation: normalizing many independent ground terms is the
// shape of every paper-scale workload in this repository — the dynamic
// checkers quantify over thousands of generated terms, and the CLI's
// multi-term eval normalizes a script of inputs. NormalizeAll shards a
// term list across forked sibling systems (a System's mutable state must
// not be shared between goroutines) and merges results and statistics
// deterministically, so output and counters are identical for any worker
// count.
package rewrite

import (
	"sync"

	"algspec/internal/par"
	"algspec/internal/term"
)

// NormalizeAll normalizes every term in ts, using up to workers
// goroutines (workers <= 0 means GOMAXPROCS). Each worker runs an
// independent Fork of the system over the same compiled program and
// shared interner, holding one machine scratch set for its whole share
// of the batch instead of borrowing one per term. The result slice is
// index-aligned with ts; a term that failed to normalize (fuel
// exhaustion) has a nil normal form and its error in the same slot of
// errs. errs is nil when every term normalized.
//
// The workers' Stats are summed into the receiver in worker order, so
// the merged counters — like the results — do not depend on scheduling.
func (s *System) NormalizeAll(ts []*term.Term, workers int) ([]*term.Term, []error) {
	nfs := make([]*term.Term, len(ts))
	var errs []error
	if len(ts) == 0 {
		return nfs, nil
	}
	w := par.Workers(workers, len(ts))
	if w == 1 {
		// In-place fast path: no fork, accumulate stats directly, and hold
		// one scratch set for the whole batch.
		if s.useCompiled {
			s.borrowScratch()
			defer s.returnScratch()
		}
		for i, t := range ts {
			nf, err := s.Normalize(t)
			if err != nil {
				if errs == nil {
					errs = make([]error, len(ts))
				}
				errs[i] = err
				continue
			}
			nfs[i] = nf
		}
		return nfs, errs
	}

	forks := make([]*System, w)
	var mu sync.Mutex // guards errs, made at the first failure
	par.ForEach(len(ts), w, func(wi, lo, hi int) {
		sys := s.Fork()
		forks[wi] = sys
		if sys.useCompiled {
			sys.borrowScratch()
			defer sys.returnScratch()
		}
		for i := lo; i < hi; i++ {
			nf, err := sys.Normalize(ts[i])
			if err != nil {
				mu.Lock()
				if errs == nil {
					errs = make([]error, len(ts))
				}
				errs[i] = err
				mu.Unlock()
				continue
			}
			nfs[i] = nf
		}
	})
	for _, f := range forks {
		if f != nil {
			s.stats = s.stats.Add(f.Stats())
		}
	}
	return nfs, errs
}
