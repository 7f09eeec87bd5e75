package completion

import "algspec/internal/spec"

// CompletedSpec returns a copy of sp whose axiom set is the completed
// rule set, suitable for rewrite.New.
func (c *Certificate) CompletedSpec(sp *spec.Spec) *spec.Spec {
	cp := *sp
	cp.All = make([]*spec.Axiom, len(c.Rules))
	for i, r := range c.Rules {
		cp.All[i] = &spec.Axiom{Label: r.Label, Owner: c.Spec, LHS: r.LHS, RHS: r.RHS}
	}
	return &cp
}
