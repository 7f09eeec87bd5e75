package homo

import "algspec/internal/term"

// PhiImage computes Φ of a concrete ground term: the abstract normal form
// of phi(t).
func (v *Verifier) PhiImage(t *term.Term) (*term.Term, error) {
	return phiImage(v.sys, v.rep.AbsSort, t)
}

// Result returns the row for the axiom with the given label.
func (r *Report) Result(label string) (*AxiomResult, bool) {
	for _, res := range r.Results {
		if res.Axiom.Label == label {
			return res, true
		}
	}
	return nil, false
}
