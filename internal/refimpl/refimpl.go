// Package refimpl holds the native Go reference implementations of the
// shipped example specifications (Counter, Graph, PQueue) behind the
// model.Impl adapter, plus single-operation mutants of each. The specs
// package model-checks the references; the conformance subsystem drives
// them over the /v1/conform wire protocol as known-good (and, mutated,
// known-bad) implementations — the mutation-smoke idea of internal/axtest
// applied to whole implementations instead of axioms: a conformance
// oracle that cannot kill every one-operation lie has no teeth.
//
// All three implementations use persistent (value-semantics) structures,
// so they satisfy the model harness's concurrency contract as-is.
package refimpl

import (
	"fmt"
	"sort"

	"algspec/internal/model"
	"algspec/internal/sig"
	"algspec/internal/spec"
)

// Counter represents a Counter as the int count of net increments; undo
// on zero is the boundary error.
func Counter(sp *spec.Spec) *model.Impl {
	t := OpTable{}
	BoolOps(t)
	NatOps(t)
	t["start"] = func([]model.Value) (model.Value, error) { return 0, nil }
	t["inc"] = func(a []model.Value) (model.Value, error) {
		c, err := AsInt(a[0])
		return c + 1, err
	}
	t["undo"] = func(a []model.Value) (model.Value, error) {
		c, err := AsInt(a[0])
		if err != nil {
			return nil, err
		}
		if c == 0 {
			return model.ErrValue, nil
		}
		return c - 1, nil
	}
	t["value"] = func(a []model.Value) (model.Value, error) {
		c, err := AsInt(a[0])
		return c, err
	}
	return Build(sp, t)
}

// graphEdge is one directed edge of the Graph representation.
type graphEdge struct{ from, to string }

// Graph represents a Graph as an (immutable) slice of directed edges
// over Identifier spellings.
func Graph(sp *spec.Spec) *model.Impl {
	t := OpTable{}
	BoolOps(t)
	SameOps(t, "same?")
	asG := func(v model.Value) ([]graphEdge, error) {
		g, ok := v.([]graphEdge)
		if !ok {
			return nil, fmt.Errorf("refimpl: want graph, got %T", v)
		}
		return g, nil
	}
	t["emptyg"] = func([]model.Value) (model.Value, error) { return []graphEdge{}, nil }
	t["addEdge"] = func(a []model.Value) (model.Value, error) {
		g, err := asG(a[0])
		if err != nil {
			return nil, err
		}
		from, err := AsString(a[1])
		if err != nil {
			return nil, err
		}
		to, err := AsString(a[2])
		if err != nil {
			return nil, err
		}
		out := make([]graphEdge, len(g), len(g)+1)
		copy(out, g)
		return append(out, graphEdge{from, to}), nil
	}
	t["hasEdge?"] = func(a []model.Value) (model.Value, error) {
		g, err := asG(a[0])
		if err != nil {
			return nil, err
		}
		from, err := AsString(a[1])
		if err != nil {
			return nil, err
		}
		to, err := AsString(a[2])
		if err != nil {
			return nil, err
		}
		for _, e := range g {
			if e.from == from && e.to == to {
				return true, nil
			}
		}
		return false, nil
	}
	return Build(sp, t)
}

// PQueue represents a PQueue as an ascending-sorted int slice (a
// multiset: duplicates are kept).
func PQueue(sp *spec.Spec) *model.Impl {
	t := OpTable{}
	BoolOps(t)
	NatOps(t)
	asQ := func(v model.Value) ([]int, error) {
		q, ok := v.([]int)
		if !ok {
			return nil, fmt.Errorf("refimpl: want pqueue, got %T", v)
		}
		return q, nil
	}
	t["emptypq"] = func([]model.Value) (model.Value, error) { return []int{}, nil }
	t["insertpq"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		if err != nil {
			return nil, err
		}
		n, err := AsInt(a[1])
		if err != nil {
			return nil, err
		}
		out := make([]int, 0, len(q)+1)
		i := 0
		for ; i < len(q) && q[i] <= n; i++ {
			out = append(out, q[i])
		}
		out = append(out, n)
		return append(out, q[i:]...), nil
	}
	t["minpq"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		if err != nil {
			return nil, err
		}
		if len(q) == 0 {
			return model.ErrValue, nil
		}
		return q[0], nil
	}
	t["deleteMin"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		if err != nil {
			return nil, err
		}
		if len(q) == 0 {
			return model.ErrValue, nil
		}
		out := make([]int, len(q)-1)
		copy(out, q[1:])
		return out, nil
	}
	t["isEmptyPQ?"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		return len(q) == 0, err
	}
	return Build(sp, t)
}

// Builders maps each implemented spec name to its reference builder.
func Builders() map[string]func(*spec.Spec) *model.Impl {
	return map[string]func(*spec.Spec) *model.Impl{
		"Counter": Counter,
		"Graph":   Graph,
		"PQueue":  PQueue,
	}
}

// minimalValue is the implementation-side rendering of the smallest
// value an operation of the given spec could return — the analogue of
// gen.Minimal for the native representations above. Mutants use it where
// the real operation returns the distinguished error.
func minimalValue(specName string, op *sig.Operation) model.Value {
	switch op.Range {
	case sig.BoolSort:
		return false
	case "Nat":
		return 0
	case "Identifier":
		return "a"
	}
	switch specName {
	case "Counter":
		return 0
	case "Graph":
		return []graphEdge{}
	case "PQueue":
		return []int{}
	}
	return 0
}

// Mutant is one single-operation perturbation of a reference
// implementation: Op's behavior is inverted on the error boundary
// exactly as axtest's mutateRHS inverts an axiom RHS — where the real
// operation returns a proper value the mutant returns error, and where
// it returns error the mutant returns the minimal value of its range.
// Every other operation is untouched.
type Mutant struct {
	Spec string
	Op   string
	Impl *model.Impl
}

// Mutate wraps a reference implementation with the single-operation
// perturbation described on Mutant.
func Mutate(sp *spec.Spec, build func(*spec.Spec) *model.Impl, opName string) *model.Impl {
	base := build(sp)
	op, _ := sp.Sig.Op(opName)
	mutated := *base
	mutated.Apply = func(name string, args []model.Value) (model.Value, error) {
		v, err := base.Apply(name, args)
		if name != opName || err != nil {
			return v, err
		}
		if model.IsErr(v) {
			return minimalValue(sp.Name, op), nil
		}
		return model.ErrValue, nil
	}
	return &mutated
}

// Mutants enumerates every single-operation mutant of the spec's
// reference implementation: one Mutant per own non-native operation, in
// operation order. It panics if the spec has no reference here — the
// callers iterate Builders, so that is a programming error.
func Mutants(sp *spec.Spec) []Mutant {
	build, ok := Builders()[sp.Name]
	if !ok {
		panic(fmt.Sprintf("refimpl: no reference implementation for %s", sp.Name))
	}
	var ops []string
	for _, op := range sp.OwnOperations() {
		if !op.Native {
			ops = append(ops, op.Name)
		}
	}
	sort.Strings(ops)
	out := make([]Mutant, 0, len(ops))
	for _, name := range ops {
		out = append(out, Mutant{Spec: sp.Name, Op: name, Impl: Mutate(sp, build, name)})
	}
	return out
}
