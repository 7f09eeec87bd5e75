// Package adapters binds every native ADT in internal/adt to its
// algebraic specification through the model-checking harness: each
// adapter implements the whole flattened signature of its spec
// (including the Bool, Nat and native-equality operations inherited
// through uses), so the specification can serve as the implementation's
// test oracle — the paper's §5 discipline of testing a module against
// nothing but the algebraic definitions of its operations. Each adapter
// is an operation table built with internal/refimpl's adapter kit.
package adapters

import (
	"fmt"

	"algspec/internal/adt/array"
	"algspec/internal/adt/boundedqueue"
	"algspec/internal/adt/ident"
	"algspec/internal/adt/knowlist"
	"algspec/internal/adt/list"
	"algspec/internal/adt/queue"
	"algspec/internal/adt/set"
	"algspec/internal/adt/stack"
	"algspec/internal/adt/symtab"
	"algspec/internal/model"
	"algspec/internal/refimpl"
	"algspec/internal/spec"
)

// Bool adapts the Go bool operations to the Bool spec.
func Bool(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	return refimpl.Build(sp, t)
}

// Nat adapts Go ints to the Nat spec.
func Nat(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.NatOps(t)
	return refimpl.Build(sp, t)
}

// Queue adapts queue.Queue to the Queue spec (Items are atoms, carried as
// strings).
func Queue(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	asQ := func(v model.Value) (queue.Queue[string], error) {
		q, ok := v.(queue.Queue[string])
		if !ok {
			return queue.Queue[string]{}, fmt.Errorf("adapters: want Queue, got %T", v)
		}
		return q, nil
	}
	t["new"] = func([]model.Value) (model.Value, error) { return queue.New[string](), nil }
	t["add"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		if err != nil {
			return nil, err
		}
		x, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		return q.Add(x), nil
	}
	t["front"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		if err != nil {
			return nil, err
		}
		x, err := q.Front()
		if err != nil {
			return model.ErrValue, nil
		}
		return x, nil
	}
	t["remove"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		if err != nil {
			return nil, err
		}
		out, err := q.Remove()
		if err != nil {
			return model.ErrValue, nil
		}
		return out, nil
	}
	t["isEmpty?"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		return q.IsEmpty(), err
	}
	return refimpl.Build(sp, t)
}

// BoundedQueue adapts boundedqueue.Queue (capacity 3, the paper's bound)
// to the BoundedQueue spec.
func BoundedQueue(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.NatOps(t)
	asQ := func(v model.Value) (boundedqueue.Queue[string], error) {
		q, ok := v.(boundedqueue.Queue[string])
		if !ok {
			return boundedqueue.Queue[string]{}, fmt.Errorf("adapters: want BoundedQueue, got %T", v)
		}
		return q, nil
	}
	t["emptyq"] = func([]model.Value) (model.Value, error) { return boundedqueue.New[string](3), nil }
	t["bound"] = func([]model.Value) (model.Value, error) { return 3, nil }
	t["addq"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		if err != nil {
			return nil, err
		}
		x, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		out, err := q.Add(x)
		if err != nil {
			return model.ErrValue, nil
		}
		return out, nil
	}
	t["frontq"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		if err != nil {
			return nil, err
		}
		x, err := q.Front()
		if err != nil {
			return model.ErrValue, nil
		}
		return x, nil
	}
	t["removeq"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		if err != nil {
			return nil, err
		}
		out, err := q.Remove()
		if err != nil {
			return model.ErrValue, nil
		}
		return out, nil
	}
	t["isEmptyQ?"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		return q.IsEmpty(), err
	}
	t["isFullQ?"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		return q.IsFull(), err
	}
	t["sizeq"] = func(a []model.Value) (model.Value, error) {
		q, err := asQ(a[0])
		return q.Len(), err
	}
	return refimpl.Build(sp, t)
}

// arrayOps implements the Array spec operations over
// array.Array[string].
func arrayOps(t refimpl.OpTable) {
	asA := func(v model.Value) (array.Array[string], error) {
		a, ok := v.(array.Array[string])
		if !ok {
			return array.Array[string]{}, fmt.Errorf("adapters: want Array, got %T", v)
		}
		return a, nil
	}
	t["empty"] = func([]model.Value) (model.Value, error) { return array.New[string](), nil }
	t["assign"] = func(a []model.Value) (model.Value, error) {
		arr, err := asA(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		val, err := refimpl.AsString(a[2])
		if err != nil {
			return nil, err
		}
		return arr.Assign(ident.Intern(id), val), nil
	}
	t["read"] = func(a []model.Value) (model.Value, error) {
		arr, err := asA(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		v, err := arr.Read(ident.Intern(id))
		if err != nil {
			return model.ErrValue, nil
		}
		return v, nil
	}
	t["isUndefined?"] = func(a []model.Value) (model.Value, error) {
		arr, err := asA(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		return arr.IsUndefined(ident.Intern(id)), err
	}
}

// Array adapts array.Array to the Array spec.
func Array(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.SameOps(t, "same?")
	arrayOps(t)
	return refimpl.Build(sp, t)
}

// Stack adapts stack.Stack (of Arrays) to the Stack spec.
func Stack(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.SameOps(t, "same?")
	arrayOps(t)
	asS := func(v model.Value) (stack.Stack[array.Array[string]], error) {
		s, ok := v.(stack.Stack[array.Array[string]])
		if !ok {
			return stack.Stack[array.Array[string]]{}, fmt.Errorf("adapters: want Stack, got %T", v)
		}
		return s, nil
	}
	t["newstack"] = func([]model.Value) (model.Value, error) {
		return stack.New[array.Array[string]](), nil
	}
	t["push"] = func(a []model.Value) (model.Value, error) {
		s, err := asS(a[0])
		if err != nil {
			return nil, err
		}
		arr, ok := a[1].(array.Array[string])
		if !ok {
			return nil, fmt.Errorf("adapters: want Array, got %T", a[1])
		}
		return s.Push(arr), nil
	}
	t["pop"] = func(a []model.Value) (model.Value, error) {
		s, err := asS(a[0])
		if err != nil {
			return nil, err
		}
		out, err := s.Pop()
		if err != nil {
			return model.ErrValue, nil
		}
		return out, nil
	}
	t["top"] = func(a []model.Value) (model.Value, error) {
		s, err := asS(a[0])
		if err != nil {
			return nil, err
		}
		out, err := s.Top()
		if err != nil {
			return model.ErrValue, nil
		}
		return out, nil
	}
	t["isNewstack?"] = func(a []model.Value) (model.Value, error) {
		s, err := asS(a[0])
		return s.IsNew(), err
	}
	t["replace"] = func(a []model.Value) (model.Value, error) {
		s, err := asS(a[0])
		if err != nil {
			return nil, err
		}
		arr, ok := a[1].(array.Array[string])
		if !ok {
			return nil, fmt.Errorf("adapters: want Array, got %T", a[1])
		}
		out, err := s.Replace(arr)
		if err != nil {
			return model.ErrValue, nil
		}
		return out, nil
	}
	return refimpl.Build(sp, t)
}

// Symboltable adapts a symtab.Table implementation to the Symboltable
// spec. newTable supplies the representation under test (NewStackTable,
// NewListTable, or a symbolic table).
func Symboltable(sp *spec.Spec, newTable func() symtab.Table) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.SameOps(t, "same?")
	asT := func(v model.Value) (symtab.Table, error) {
		tbl, ok := v.(symtab.Table)
		if !ok {
			return nil, fmt.Errorf("adapters: want symtab.Table, got %T", v)
		}
		return tbl, nil
	}
	t["init"] = func([]model.Value) (model.Value, error) { return newTable(), nil }
	t["enterblock"] = func(a []model.Value) (model.Value, error) {
		tbl, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		return tbl.EnterBlock(), nil
	}
	t["leaveblock"] = func(a []model.Value) (model.Value, error) {
		tbl, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		out, err := tbl.LeaveBlock()
		if err != nil {
			return model.ErrValue, nil
		}
		return out, nil
	}
	t["add"] = func(a []model.Value) (model.Value, error) {
		tbl, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		attrs, err := refimpl.AsString(a[2])
		if err != nil {
			return nil, err
		}
		return tbl.Add(ident.Intern(id), attrs), nil
	}
	t["isInblock?"] = func(a []model.Value) (model.Value, error) {
		tbl, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		return tbl.IsInBlock(ident.Intern(id)), err
	}
	t["retrieve"] = func(a []model.Value) (model.Value, error) {
		tbl, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		attrs, err := tbl.Retrieve(ident.Intern(id))
		if err != nil {
			return model.ErrValue, nil
		}
		return attrs, nil
	}
	return refimpl.Build(sp, t)
}

// Knowlist adapts knowlist.List to the Knowlist spec.
func Knowlist(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.SameOps(t, "same?")
	knowlistOps(t)
	return refimpl.Build(sp, t)
}

func knowlistOps(t refimpl.OpTable) {
	asK := func(v model.Value) (knowlist.List, error) {
		k, ok := v.(knowlist.List)
		if !ok {
			return knowlist.List{}, fmt.Errorf("adapters: want Knowlist, got %T", v)
		}
		return k, nil
	}
	t["create"] = func([]model.Value) (model.Value, error) { return knowlist.Create(), nil }
	t["append"] = func(a []model.Value) (model.Value, error) {
		k, err := asK(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		return k.Append(ident.Intern(id)), nil
	}
	t["isIn?"] = func(a []model.Value) (model.Value, error) {
		k, err := asK(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		return k.IsIn(ident.Intern(id)), err
	}
}

// SymboltableKnows adapts symtab.KnowsTable to the SymboltableKnows spec.
func SymboltableKnows(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.SameOps(t, "same?")
	knowlistOps(t)
	asT := func(v model.Value) (symtab.KnowsTable, error) {
		tbl, ok := v.(symtab.KnowsTable)
		if !ok {
			return nil, fmt.Errorf("adapters: want symtab.KnowsTable, got %T", v)
		}
		return tbl, nil
	}
	t["init"] = func([]model.Value) (model.Value, error) { return symtab.NewKnowsTable(), nil }
	t["enterblock"] = func(a []model.Value) (model.Value, error) {
		tbl, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		k, ok := a[1].(knowlist.List)
		if !ok {
			return nil, fmt.Errorf("adapters: want Knowlist, got %T", a[1])
		}
		return tbl.EnterBlock(k), nil
	}
	t["leaveblock"] = func(a []model.Value) (model.Value, error) {
		tbl, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		out, err := tbl.LeaveBlock()
		if err != nil {
			return model.ErrValue, nil
		}
		return out, nil
	}
	t["add"] = func(a []model.Value) (model.Value, error) {
		tbl, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		attrs, err := refimpl.AsString(a[2])
		if err != nil {
			return nil, err
		}
		return tbl.Add(ident.Intern(id), attrs), nil
	}
	t["isInblock?"] = func(a []model.Value) (model.Value, error) {
		tbl, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		return tbl.IsInBlock(ident.Intern(id)), err
	}
	t["retrieve"] = func(a []model.Value) (model.Value, error) {
		tbl, err := asT(a[0])
		if err != nil {
			return nil, err
		}
		id, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		attrs, err := tbl.Retrieve(ident.Intern(id))
		if err != nil {
			return model.ErrValue, nil
		}
		return attrs, nil
	}
	return refimpl.Build(sp, t)
}

// Set adapts set.Set to the Set spec.
func Set(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.NatOps(t)
	refimpl.SameOps(t, "sameElem?")
	asS := func(v model.Value) (set.Set[string], error) {
		s, ok := v.(set.Set[string])
		if !ok {
			return set.Set[string]{}, fmt.Errorf("adapters: want Set, got %T", v)
		}
		return s, nil
	}
	t["emptyset"] = func([]model.Value) (model.Value, error) { return set.Empty[string](), nil }
	t["insert"] = func(a []model.Value) (model.Value, error) {
		s, err := asS(a[0])
		if err != nil {
			return nil, err
		}
		x, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		return s.Insert(x), nil
	}
	t["isMember?"] = func(a []model.Value) (model.Value, error) {
		s, err := asS(a[0])
		if err != nil {
			return nil, err
		}
		x, err := refimpl.AsString(a[1])
		return s.IsMember(x), err
	}
	t["delete"] = func(a []model.Value) (model.Value, error) {
		s, err := asS(a[0])
		if err != nil {
			return nil, err
		}
		x, err := refimpl.AsString(a[1])
		if err != nil {
			return nil, err
		}
		return s.Delete(x), nil
	}
	t["card"] = func(a []model.Value) (model.Value, error) {
		s, err := asS(a[0])
		return s.Card(), err
	}
	t["isEmptySet?"] = func(a []model.Value) (model.Value, error) {
		s, err := asS(a[0])
		return s.IsEmpty(), err
	}
	return refimpl.Build(sp, t)
}

// List adapts list.List to the List spec.
func List(sp *spec.Spec) *model.Impl {
	t := refimpl.OpTable{}
	refimpl.BoolOps(t)
	refimpl.NatOps(t)
	refimpl.SameOps(t, "sameElem?")
	asL := func(v model.Value) (list.List[string], error) {
		l, ok := v.(list.List[string])
		if !ok {
			return list.List[string]{}, fmt.Errorf("adapters: want List, got %T", v)
		}
		return l, nil
	}
	t["nil"] = func([]model.Value) (model.Value, error) { return list.Nil[string](), nil }
	t["cons"] = func(a []model.Value) (model.Value, error) {
		x, err := refimpl.AsString(a[0])
		if err != nil {
			return nil, err
		}
		l, err := asL(a[1])
		if err != nil {
			return nil, err
		}
		return l.Cons(x), nil
	}
	t["head"] = func(a []model.Value) (model.Value, error) {
		l, err := asL(a[0])
		if err != nil {
			return nil, err
		}
		x, err := l.Head()
		if err != nil {
			return model.ErrValue, nil
		}
		return x, nil
	}
	t["tail"] = func(a []model.Value) (model.Value, error) {
		l, err := asL(a[0])
		if err != nil {
			return nil, err
		}
		out, err := l.Tail()
		if err != nil {
			return model.ErrValue, nil
		}
		return out, nil
	}
	t["isNil?"] = func(a []model.Value) (model.Value, error) {
		l, err := asL(a[0])
		return l.IsNil(), err
	}
	t["appendL"] = func(a []model.Value) (model.Value, error) {
		l, err := asL(a[0])
		if err != nil {
			return nil, err
		}
		k, err := asL(a[1])
		if err != nil {
			return nil, err
		}
		return l.Append(k), nil
	}
	t["lengthL"] = func(a []model.Value) (model.Value, error) {
		l, err := asL(a[0])
		return l.Length(), err
	}
	t["memberL?"] = func(a []model.Value) (model.Value, error) {
		l, err := asL(a[0])
		if err != nil {
			return nil, err
		}
		x, err := refimpl.AsString(a[1])
		return l.Member(x), err
	}
	t["reverseL"] = func(a []model.Value) (model.Value, error) {
		l, err := asL(a[0])
		return l.Reverse(), err
	}
	return refimpl.Build(sp, t)
}
