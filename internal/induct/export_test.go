package induct

// Lemmas returns the equations learned so far.
func (p *Prover) Lemmas() []Equation { return p.lemmas }
