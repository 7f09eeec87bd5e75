package adapters

import (
	"fmt"

	"algspec/internal/adt/bag"
	"algspec/internal/adt/bst"
	"algspec/internal/adt/fmap"
	"algspec/internal/model"
	"algspec/internal/refimpl"
	"algspec/internal/spec"
)

// Bag adapts bag.Bag to the Bag spec.
func Bag(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.NatOps(t)
	refimpl.SameOps(t, "sameElem?")
	asB := func(v model.Value) (bag.Bag[string], error) {
		b, ok := v.(bag.Bag[string])
		if !ok {
			return bag.Bag[string]{}, fmt.Errorf("adapters: want Bag, got %T", v)
		}
		return b, nil
	}
	t["emptybag"] = func([]model.Value) (model.Value, error) { return bag.Empty[string](), nil }
	t["insertb"] = func(a []model.Value) (model.Value, error) {
		b, err := asB(a[0])
		if err != nil {
			return nil, err
		}
		x, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		return b.Insert(x), nil
	}
	t["deleteb"] = func(a []model.Value) (model.Value, error) {
		b, err := asB(a[0])
		if err != nil {
			return nil, err
		}
		x, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		return b.Delete(x), nil
	}
	t["countb"] = func(a []model.Value) (model.Value, error) {
		b, err := asB(a[0])
		if err != nil {
			return nil, err
		}
		x, err := refimpl.AsString(a[1])
		return b.Count(x), err
	}
	t["memberB?"] = func(a []model.Value) (model.Value, error) {
		b, err := asB(a[0])
		if err != nil {
			return nil, err
		}
		x, err := refimpl.AsString(a[1])
		return b.Member(x), err
	}
	t["sizeb"] = func(a []model.Value) (model.Value, error) {
		b, err := asB(a[0])
		return b.Size(), err
	}
	return refimpl.Build(sp, t)
}

// BST adapts bst.Tree to the BST spec. The spec's Nats arrive as ints
// through the Nat operations.
func BST(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.NatOps(t)
	asT := func(v model.Value) (bst.Tree, error) {
		tr, ok := v.(bst.Tree)
		if !ok {
			return bst.Tree{}, fmt.Errorf("adapters: want Tree, got %T", v)
		}
		return tr, nil
	}
	t["emptyt"] = func([]model.Value) (model.Value, error) { return bst.Empty(), nil }
	t["node"] = func(a []model.Value) (model.Value, error) {
		l, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		n, err := refimpl.AsInt(a[1])
		if err != nil {
			return nil, err
		}
		r, err := asT(a[2])
		if err != nil {
			return nil, err
		}
		return bst.NewNode(l, n, r), nil
	}
	t["insertT"] = func(a []model.Value) (model.Value, error) {
		tr, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		n, err := refimpl.AsInt(a[1])
		if err != nil {
			return nil, err
		}
		return tr.Insert(n), nil
	}
	t["memberT?"] = func(a []model.Value) (model.Value, error) {
		tr, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		n, err := refimpl.AsInt(a[1])
		return tr.Member(n), err
	}
	t["isEmptyT?"] = func(a []model.Value) (model.Value, error) {
		tr, err := asT(a[0])
		return tr.IsEmpty(), err
	}
	t["minT"] = func(a []model.Value) (model.Value, error) {
		tr, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		n, err := tr.Min()
		if err != nil {
			return model.ErrValue, nil
		}
		return n, nil
	}
	t["sizeT"] = func(a []model.Value) (model.Value, error) {
		tr, err := asT(a[0])
		return tr.Size(), err
	}
	return refimpl.Build(sp, t)
}

// Map adapts fmap.Map to the Map spec.
func Map(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.NatOps(t)
	refimpl.SameOps(t, "sameElem?")
	asM := func(v model.Value) (fmap.Map[string, string], error) {
		m, ok := v.(fmap.Map[string, string])
		if !ok {
			return fmap.Map[string, string]{}, fmt.Errorf("adapters: want Map, got %T", v)
		}
		return m, nil
	}
	t["emptymap"] = func([]model.Value) (model.Value, error) {
		return fmap.Empty[string, string](), nil
	}
	t["put"] = func(a []model.Value) (model.Value, error) {
		m, err := asM(a[0])
		if err != nil {
			return nil, err
		}
		k, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		v, err := refimpl.AsString(a[2])
		if err != nil {
			return nil, err
		}
		return m.Put(k, v), nil
	}
	t["get"] = func(a []model.Value) (model.Value, error) {
		m, err := asM(a[0])
		if err != nil {
			return nil, err
		}
		k, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		v, err := m.Get(k)
		if err != nil {
			return model.ErrValue, nil
		}
		return v, nil
	}
	t["hasKey?"] = func(a []model.Value) (model.Value, error) {
		m, err := asM(a[0])
		if err != nil {
			return nil, err
		}
		k, err := refimpl.AsString(a[1])
		return m.HasKey(k), err
	}
	t["removeKey"] = func(a []model.Value) (model.Value, error) {
		m, err := asM(a[0])
		if err != nil {
			return nil, err
		}
		k, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		return m.RemoveKey(k), nil
	}
	t["sizeM"] = func(a []model.Value) (model.Value, error) {
		m, err := asM(a[0])
		return m.Size(), err
	}
	return refimpl.Build(sp, t)
}
