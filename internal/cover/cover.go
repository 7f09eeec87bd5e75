// Package cover measures axiom coverage: which of a specification's
// relations actually fire while evaluating a workload. The paper's §5
// proposes specifications as a vehicle "for facilitating the testing of
// software"; coverage closes the loop in the other direction — a test
// suite (or the checkers' generated workloads) that never exercises some
// axiom says nothing about it, and an axiom that can never fire at all
// is shadowed or dead.
package cover

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"algspec/internal/gen"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// Report summarizes rule firings over a workload.
type Report struct {
	Spec string
	// Fired maps "owner/label" to the number of applications.
	Fired map[string]int
	// Unfired lists the spec's own axioms that never fired, in source
	// order.
	Unfired []*spec.Axiom
	// Terms is the number of workload terms evaluated; Steps the total
	// rule applications.
	Terms int
	Steps int
	// Errors counts terms whose normalization failed (fuel).
	Errors int
}

// Covered reports whether every own axiom fired at least once.
func (r *Report) Covered() bool { return len(r.Unfired) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "axiom coverage of %s: %d term(s), %d rule application(s)", r.Spec, r.Terms, r.Steps)
	if r.Covered() {
		b.WriteString(", all own axioms fired\n")
	} else {
		fmt.Fprintf(&b, ", %d own axiom(s) NEVER fired\n", len(r.Unfired))
		for _, a := range r.Unfired {
			fmt.Fprintf(&b, "  UNFIRED %s\n", a)
		}
	}
	// Stable hottest-first listing of fired rules.
	type kv struct {
		k string
		n int
	}
	var hot []kv
	for k, n := range r.Fired {
		hot = append(hot, kv{k, n})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].k < hot[j].k
	})
	for _, h := range hot {
		fmt.Fprintf(&b, "  %6d  %s\n", h.n, h.k)
	}
	return b.String()
}

// Measure evaluates the workload terms and records which axioms fired.
func Measure(sp *spec.Spec, workload []*term.Term) *Report {
	r := &Report{Spec: sp.Name, Fired: make(map[string]int)}
	sys := rewrite.New(sp, rewrite.WithTrace(func(ts rewrite.TraceStep) {
		key := ts.Rule.Owner + "/" + ts.Rule.Label
		r.Fired[key]++
		r.Steps++
	}))
	for _, t := range workload {
		r.Terms++
		if _, err := sys.Normalize(t); err != nil {
			r.Errors++
		}
	}
	for _, a := range sp.Own {
		if r.Fired[a.Owner+"/"+a.Label] == 0 {
			r.Unfired = append(r.Unfired, a)
		}
	}
	return r
}

// GeneratedWorkload builds the standard coverage workload: every own
// extension operation applied to argument tuples up to the depth bound,
// capped per operation. Unlike the checkers' raw enumeration, the
// argument choices are deterministically shuffled before the cap is
// applied, so a truncated prefix still samples every constructor head —
// otherwise deep sorts would exhaust the cap on their first-declared
// constructor and late-declared ones would look uncovered.
func GeneratedWorkload(sp *spec.Spec, depth, maxPerOp int) []*term.Term {
	if depth == 0 {
		depth = 4
	}
	if maxPerOp == 0 {
		maxPerOp = 1000
	}
	g := gen.New(sp, gen.Config{})
	rng := rand.New(rand.NewSource(0xC0FE))
	var out []*term.Term
	for _, opName := range sp.OwnOps {
		op := sp.Sig.MustOp(opName)
		if op.Native || sp.IsConstructor(opName) {
			continue
		}
		choices := make([][]*term.Term, len(op.Domain))
		feasible := true
		for i, d := range op.Domain {
			c := g.Enumerate(d, depth)
			if len(c) == 0 {
				feasible = false
				break
			}
			c = append([]*term.Term(nil), c...)
			rng.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
			choices[i] = c
		}
		if !feasible {
			continue
		}
		out = appendShuffledProducts(out, op.Name, op.Range, choices, maxPerOp)
	}
	return out
}

// appendShuffledProducts appends up to limit argument tuples, odometer
// over the (already shuffled) choices.
func appendShuffledProducts(out []*term.Term, name string, rng0 sig.Sort, choices [][]*term.Term, limit int) []*term.Term {
	idx := make([]int, len(choices))
	for n := 0; n < limit; n++ {
		args := make([]*term.Term, len(choices))
		for i, c := range choices {
			args[i] = c[idx[i]]
		}
		out = append(out, term.NewOp(name, rng0, args...))
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(choices[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out
}

// MeasureGenerated is Measure over GeneratedWorkload.
func MeasureGenerated(sp *spec.Spec, depth, maxPerOp int) *Report {
	return Measure(sp, GeneratedWorkload(sp, depth, maxPerOp))
}
