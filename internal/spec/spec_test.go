package spec_test

import (
	"strings"
	"testing"

	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

func queue(t *testing.T) *spec.Spec {
	t.Helper()
	return speclib.BaseEnv().MustGet("Queue")
}

func TestConstructorsAndExtensions(t *testing.T) {
	sp := queue(t)
	ctors := sp.Constructors("Queue")
	if len(ctors) != 2 || ctors[0].Name != "new" || ctors[1].Name != "add" {
		t.Errorf("constructors = %v", ctors)
	}
	bctors := sp.Constructors(sig.BoolSort)
	if len(bctors) != 2 {
		t.Errorf("Bool constructors = %v", bctors)
	}
	if !sp.IsConstructor("new") || sp.IsConstructor("front") || sp.IsConstructor("nope") {
		t.Error("IsConstructor wrong")
	}
	exts := sp.Extensions()
	names := map[string]bool{}
	for _, e := range exts {
		names[e.Name] = true
	}
	for _, want := range []string{"front", "remove", "isEmpty?", "not", "and", "or"} {
		if !names[want] {
			t.Errorf("extension %s missing from %v", want, exts)
		}
	}
	// Native ops are never constructors.
	id := speclib.BaseEnv().MustGet("Identifier")
	if id.IsConstructor("same?") {
		t.Error("native same? classified as constructor")
	}
}

// TestObservers: the observed operations are the extensions with a Bool,
// atom or parameter range, plus any extra sort, in signature order.
func TestObservers(t *testing.T) {
	sp := queue(t)
	for so, want := range map[sig.Sort]bool{"Bool": true, "Item": true, "Queue": false} {
		if sp.Observable(so) != want {
			t.Errorf("Observable(%s) = %v, want %v", so, !want, want)
		}
	}
	names := func(ops []*sig.Operation) string {
		var out []string
		for _, op := range ops {
			out = append(out, op.Name)
		}
		return strings.Join(out, " ")
	}
	if got := names(sp.Observers()); got != "not and or front isEmpty?" {
		t.Errorf("Observers() = %s", got)
	}
	if got := names(sp.Observers("Queue")); got != "not and or front remove isEmpty?" {
		t.Errorf(`Observers("Queue") = %s`, got)
	}
}

// IsConstructor runs at every node of every normal form the dynamic
// completeness check classifies, so it must not allocate.
func TestIsConstructorAllocFree(t *testing.T) {
	sp := queue(t)
	allocs := testing.AllocsPerRun(100, func() {
		if !sp.IsConstructor("add") || sp.IsConstructor("front") {
			t.Fatal("IsConstructor wrong")
		}
	})
	if allocs != 0 {
		t.Errorf("IsConstructor: %.0f allocation(s) per 2 calls, want 0", allocs)
	}
}

func TestAxiomsFor(t *testing.T) {
	sp := queue(t)
	axs := sp.AxiomsFor("front")
	if len(axs) != 2 {
		t.Fatalf("axioms for front = %d", len(axs))
	}
	if axs[0].Label != "3" || axs[1].Label != "4" {
		t.Errorf("labels = %s %s", axs[0].Label, axs[1].Label)
	}
	if axs[0].Head() != "front" {
		t.Errorf("head = %s", axs[0].Head())
	}
	if got := sp.AxiomsFor("new"); got != nil {
		t.Errorf("axioms for constructor = %v", got)
	}
	ax, ok := sp.AxiomByLabel("4")
	if !ok || ax.Head() != "front" {
		t.Errorf("AxiomByLabel = %v %v", ax, ok)
	}
	if _, ok := sp.AxiomByLabel("99"); ok {
		t.Error("AxiomByLabel found ghost")
	}
}

func TestValidateRejectsBadAxioms(t *testing.T) {
	sp := queue(t)
	base := *sp

	cases := []struct {
		name string
		ax   *spec.Axiom
		want string
	}{
		{
			"var lhs",
			&spec.Axiom{Label: "x", LHS: term.NewVar("q", "Queue"), RHS: term.NewOp("new", "Queue")},
			"operation application",
		},
		{
			"unknown op",
			&spec.Axiom{Label: "x", LHS: term.NewOp("ghost", "Queue"), RHS: term.NewOp("new", "Queue")},
			"unknown operation",
		},
		{
			"sort mismatch",
			&spec.Axiom{Label: "x", LHS: term.NewOp("front", "Item", term.NewVar("q", "Queue")), RHS: term.NewOp("new", "Queue")},
			"different sorts",
		},
		{
			"rhs var not in lhs",
			&spec.Axiom{Label: "x",
				LHS: term.NewOp("remove", "Queue", term.NewVar("q", "Queue")),
				RHS: term.NewVar("r", "Queue")},
			"does not occur",
		},
		{
			"arity",
			&spec.Axiom{Label: "x",
				LHS: term.NewOp("remove", "Queue", term.NewVar("q", "Queue")),
				RHS: term.NewOp("add", "Queue", term.NewVar("q", "Queue"))},
			"wants 2",
		},
	}
	for _, c := range cases {
		bad := base
		bad.Own = append(append([]*spec.Axiom(nil), base.Own...), c.ax)
		bad.All = append(append([]*spec.Axiom(nil), base.All...), c.ax)
		err := bad.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

func TestValidateDuplicateLabels(t *testing.T) {
	sp := queue(t)
	bad := *sp
	dup := &spec.Axiom{Label: "1", Owner: "Queue",
		LHS: term.NewOp("remove", "Queue", term.NewVar("q", "Queue")),
		RHS: term.NewVar("q", "Queue")}
	bad.Own = append(append([]*spec.Axiom(nil), sp.Own...), dup)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate axiom label") {
		t.Errorf("err = %v", err)
	}
}

func TestNonLeftLinear(t *testing.T) {
	sp := queue(t)
	if got := sp.NonLeftLinearAxioms(); len(got) != 0 {
		t.Errorf("queue has non-left-linear axioms: %v", got)
	}
	mod := *sp
	nl := &spec.Axiom{Label: "nl", Owner: "Queue",
		LHS: term.NewOp("add", "Queue",
			term.NewOp("add", "Queue", term.NewVar("q", "Queue"), term.NewVar("i", "Item")),
			term.NewVar("i", "Item")),
		RHS: term.NewVar("q", "Queue")}
	mod.Own = append(append([]*spec.Axiom(nil), sp.Own...), nl)
	if got := mod.NonLeftLinearAxioms(); len(got) != 1 || got[0].Label != "nl" {
		t.Errorf("NonLeftLinear = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	sp := queue(t)
	out := sp.String()
	for _, want := range []string{"spec Queue", "uses Bool", "param Item", "[4] front(add(q, i))"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
	ax := sp.Own[0]
	if ax.String() != "[1] isEmpty?(new) = true" {
		t.Errorf("axiom String = %q", ax.String())
	}
}

func TestOwnOperations(t *testing.T) {
	sp := queue(t)
	ops := sp.OwnOperations()
	if len(ops) != 5 {
		t.Errorf("own ops = %d", len(ops))
	}
	if ops[0].Name != "new" {
		t.Errorf("first own op = %s", ops[0].Name)
	}
}

func TestPrincipalSortAbsent(t *testing.T) {
	sp := speclib.BaseEnv().MustGet("Attrs")
	if ps, ok := sp.PrincipalSort(); !ok || ps != "Attrs" {
		t.Errorf("Attrs principal = %v %v", ps, ok)
	}
}
