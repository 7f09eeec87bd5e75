package refimpl

import (
	"fmt"

	"algspec/internal/model"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// This file is the adapter kit every native implementation in the
// repository is built from: the references here and the internal/adt
// adapters. An implementation is an OpTable from operation name to Go
// function, with the Bool, Nat and atom-equality operations it inherits
// through uses supplied by BoolOps, NatOps and SameOps, and Build wraps
// the table as a model.Impl that injects atoms as their spelling and
// reifies with StdReify.

// OpTable is a dispatch table from operation name to evaluator.
type OpTable map[string]func(args []model.Value) (model.Value, error)

func (t OpTable) apply(op string, args []model.Value) (model.Value, error) {
	f, ok := t[op]
	if !ok {
		return nil, fmt.Errorf("refimpl: operation %s not implemented", op)
	}
	return f(args)
}

// AsBool, AsInt and AsString convert harness values, with an error
// naming the value's actual type.
func AsBool(v model.Value) (bool, error) {
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("refimpl: want bool, got %T", v)
	}
	return b, nil
}

func AsInt(v model.Value) (int, error) {
	n, ok := v.(int)
	if !ok {
		return 0, fmt.Errorf("refimpl: want int, got %T", v)
	}
	return n, nil
}

func AsString(v model.Value) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("refimpl: want string, got %T", v)
	}
	return s, nil
}

// BoolOps implements the Bool specification over Go bools.
func BoolOps(t OpTable) {
	t["true"] = func([]model.Value) (model.Value, error) { return true, nil }
	t["false"] = func([]model.Value) (model.Value, error) { return false, nil }
	t["not"] = func(a []model.Value) (model.Value, error) {
		b, err := AsBool(a[0])
		return !b, err
	}
	t["and"] = func(a []model.Value) (model.Value, error) {
		x, err := AsBool(a[0])
		if err != nil {
			return nil, err
		}
		y, err := AsBool(a[1])
		return x && y, err
	}
	t["or"] = func(a []model.Value) (model.Value, error) {
		x, err := AsBool(a[0])
		if err != nil {
			return nil, err
		}
		y, err := AsBool(a[1])
		return x || y, err
	}
}

// NatOps implements the Nat specification over Go ints.
func NatOps(t OpTable) {
	t["zero"] = func([]model.Value) (model.Value, error) { return 0, nil }
	t["succ"] = func(a []model.Value) (model.Value, error) {
		n, err := AsInt(a[0])
		return n + 1, err
	}
	t["pred"] = func(a []model.Value) (model.Value, error) {
		n, err := AsInt(a[0])
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return model.ErrValue, nil
		}
		return n - 1, nil
	}
	t["addN"] = func(a []model.Value) (model.Value, error) {
		m, err := AsInt(a[0])
		if err != nil {
			return nil, err
		}
		n, err := AsInt(a[1])
		return m + n, err
	}
	t["eqN"] = func(a []model.Value) (model.Value, error) {
		m, err := AsInt(a[0])
		if err != nil {
			return nil, err
		}
		n, err := AsInt(a[1])
		return m == n, err
	}
	t["ltN"] = func(a []model.Value) (model.Value, error) {
		m, err := AsInt(a[0])
		if err != nil {
			return nil, err
		}
		n, err := AsInt(a[1])
		return m < n, err
	}
}

// SameOps implements the named native atom equalities over Go strings.
func SameOps(t OpTable, names ...string) {
	for _, name := range names {
		t[name] = func(a []model.Value) (model.Value, error) {
			x, err := AsString(a[0])
			if err != nil {
				return nil, err
			}
			y, err := AsString(a[1])
			return x == y, err
		}
	}
}

// StdReify is the reification the native implementations share: Bool
// values to true/false, int values of a Nat sort to succ^n(zero), string
// values of open (atom and parameter) sorts to the atom itself. Every
// other sort is hidden (compared observationally).
func StdReify(sp *spec.Spec) func(so sig.Sort, v model.Value) (*term.Term, bool, error) {
	return func(so sig.Sort, v model.Value) (*term.Term, bool, error) {
		switch {
		case so == sig.BoolSort:
			b, err := AsBool(v)
			if err != nil {
				return nil, false, err
			}
			return term.Bool(b), true, nil
		case so == "Nat" && sp.Sig.HasSort("Nat"):
			n, err := AsInt(v)
			if err != nil {
				return nil, false, err
			}
			t := term.NewOp("zero", "Nat")
			for i := 0; i < n; i++ {
				t = term.NewOp("succ", "Nat", t)
			}
			return t, true, nil
		case sp.Sig.OpenSort(so):
			s, err := AsString(v)
			if err != nil {
				return nil, false, err
			}
			return term.NewAtom(s, so), true, nil
		default:
			return nil, false, nil
		}
	}
}

// Build wraps an operation table as an implementation of the spec.
func Build(sp *spec.Spec, t OpTable) *model.Impl {
	return &model.Impl{
		SpecName: sp.Name,
		Apply:    t.apply,
		Atom: func(so sig.Sort, spelling string) (model.Value, error) {
			return spelling, nil
		},
		Reify: StdReify(sp),
	}
}
