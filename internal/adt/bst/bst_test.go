package bst_test

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"algspec/internal/adt/bst"
)

func TestBasics(t *testing.T) {
	tr := bst.Empty()
	if !tr.IsEmpty() || tr.Size() != 0 || tr.Member(1) {
		t.Error("fresh tree state wrong")
	}
	if _, err := tr.Min(); !errors.Is(err, bst.ErrEmpty) {
		t.Errorf("Min: %v", err)
	}
	tr = tr.Insert(5).Insert(2).Insert(8).Insert(2) // duplicate dropped
	if tr.Size() != 3 {
		t.Errorf("Size = %d", tr.Size())
	}
	for _, v := range []int{2, 5, 8} {
		if !tr.Member(v) {
			t.Errorf("%d missing", v)
		}
	}
	if tr.Member(3) {
		t.Error("phantom member")
	}
	m, err := tr.Min()
	if err != nil || m != 2 {
		t.Errorf("Min = %d, %v", m, err)
	}
	if got := tr.InOrder(); !reflect.DeepEqual(got, []int{2, 5, 8}) {
		t.Errorf("InOrder = %v", got)
	}
}

func TestPersistence(t *testing.T) {
	t1 := bst.Empty().Insert(5)
	t2 := t1.Insert(3)
	if t1.Member(3) {
		t.Error("t1 sees t2's insert")
	}
	if !t2.Member(5) {
		t.Error("t2 lost 5")
	}
}

// NewNode builds arbitrary (even non-search) trees; Member descends by
// comparison regardless, exactly like the specification's observers.
func TestFreeNode(t *testing.T) {
	// node(node(empty, 9, empty), 5, empty): 9 sits in the LEFT subtree
	// of 5, violating search order; Member(9) goes right of 5 and
	// misses it — as the spec's axiom m2 dictates.
	bad := bst.NewNode(bst.NewNode(bst.Empty(), 9, bst.Empty()), 5, bst.Empty())
	if bad.Member(9) {
		t.Error("Member found out-of-place 9 (spec says it must not)")
	}
	if !bad.Member(5) {
		t.Error("root not found")
	}
	if bad.Size() != 2 {
		t.Errorf("Size = %d", bad.Size())
	}
	// minT descends left blindly.
	m, err := bad.Min()
	if err != nil || m != 9 {
		t.Errorf("Min = %d, %v", m, err)
	}
}

// Property: after inserting a set of values, InOrder is the sorted
// deduplicated slice and Member agrees with the set.
func TestQuickInsertProperties(t *testing.T) {
	f := func(vals []int16) bool {
		tr := bst.Empty()
		set := map[int]bool{}
		for _, v := range vals {
			tr = tr.Insert(int(v))
			set[int(v)] = true
		}
		var want []int
		for v := range set {
			want = append(want, v)
		}
		sort.Ints(want)
		got := tr.InOrder()
		if len(want) == 0 {
			return len(got) == 0
		}
		if !reflect.DeepEqual(got, want) {
			return false
		}
		if tr.Size() != len(want) {
			return false
		}
		if len(want) > 0 {
			m, err := tr.Min()
			if err != nil || m != want[0] {
				return false
			}
		}
		for v := range set {
			if !tr.Member(v) {
				return false
			}
		}
		return !tr.Member(math.MaxInt16 + 1) // absent: no int16 input reaches it
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
