package model_test

import (
	"strings"
	"testing"

	"algspec/internal/adt/adapters"
	"algspec/internal/adt/queue"
	"algspec/internal/adt/symtab"
	"algspec/internal/model"
	"algspec/internal/sig"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// Every native ADT passes its specification's axiom check and agrees
// with the symbolic interpretation — the library-wide oracle test.
func TestAllAdaptersSatisfyTheirSpecs(t *testing.T) {
	env := speclib.BaseEnv()
	cases := []struct {
		spec string
		impl *model.Impl
		cfg  model.Config
	}{
		{"Bool", adapters.Bool(env.MustGet("Bool")), model.Config{Depth: 1}},
		{"Nat", adapters.Nat(env.MustGet("Nat")), model.Config{Depth: 5, MaxInstancesPerAxiom: 400}},
		{"Queue", adapters.Queue(env.MustGet("Queue")), model.Config{Depth: 4, MaxInstancesPerAxiom: 400}},
		{"BoundedQueue", adapters.BoundedQueue(env.MustGet("BoundedQueue")), model.Config{Depth: 5, MaxInstancesPerAxiom: 300}},
		{"Array", adapters.Array(env.MustGet("Array")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"Stack", adapters.Stack(env.MustGet("Stack")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"Knowlist", adapters.Knowlist(env.MustGet("Knowlist")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"SymboltableKnows", adapters.SymboltableKnows(env.MustGet("SymboltableKnows")), model.Config{Depth: 3, MaxInstancesPerAxiom: 200}},
		{"Set", adapters.Set(env.MustGet("Set")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"List", adapters.List(env.MustGet("List")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"Bag", adapters.Bag(env.MustGet("Bag")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"BST", adapters.BST(env.MustGet("BST")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"Map", adapters.Map(env.MustGet("Map")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
	}
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			sp := env.MustGet(c.spec)
			ar := model.CheckAxioms(sp, c.impl, c.cfg)
			if !ar.OK() {
				t.Errorf("axioms: %s", ar)
			}
			if ar.Checked == 0 {
				t.Error("axiom check exercised nothing")
			}
			gr := model.CheckAgainstSpec(sp, c.impl, c.cfg)
			if !gr.OK() {
				t.Errorf("agreement: %s", gr)
			}
		})
	}
}

// Both symbol table representations (and the symbolic one, trivially)
// satisfy the Symboltable axioms.
func TestSymboltableRepresentations(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Symboltable")
	reps := map[string]func() symtab.Table{
		"stack": symtab.NewStackTable,
		"list":  symtab.NewListTable,
	}
	for name, mk := range reps {
		t.Run(name, func(t *testing.T) {
			impl := adapters.Symboltable(sp, mk)
			cfg := model.Config{Depth: 3, MaxInstancesPerAxiom: 250}
			if r := model.CheckAxioms(sp, impl, cfg); !r.OK() {
				t.Errorf("axioms: %s", r)
			}
			if r := model.CheckAgainstSpec(sp, impl, cfg); !r.OK() {
				t.Errorf("agreement: %s", r)
			}
		})
	}
}

// A deliberately wrong implementation is caught: a "queue" that serves
// the most recent element (LIFO) violates axiom 4 on two-element queues.
func TestBuggyImplementationCaught(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	impl := adapters.Queue(sp)
	goodApply := impl.Apply
	impl.Apply = func(op string, args []model.Value) (model.Value, error) {
		if op == "front" {
			q := args[0].(queue.Queue[string])
			s := q.Slice()
			if len(s) == 0 {
				return model.ErrValue, nil
			}
			return s[len(s)-1], nil // LIFO bug
		}
		return goodApply(op, args)
	}
	r := model.CheckAxioms(sp, impl, model.Config{Depth: 4, MaxInstancesPerAxiom: 300})
	if r.OK() {
		t.Fatal("LIFO bug not caught by axiom check")
	}
	// The failing axiom is 4 (front of a nonempty add).
	found := false
	for _, f := range r.Failures {
		if f.Axiom == "4" {
			found = true
		}
	}
	if !found {
		t.Errorf("failures = %v", r.Failures)
	}
	r2 := model.CheckAgainstSpec(sp, impl, model.Config{Depth: 4, MaxInstancesPerAxiom: 300})
	if r2.OK() {
		t.Fatal("LIFO bug not caught by agreement check")
	}
}

// A subtler bug: Remove that drops from the wrong end. Axiom 6 requires
// REMOVE(ADD(q,i)) to keep i when q is nonempty.
func TestRemoveWrongEndCaught(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	impl := adapters.Queue(sp)
	goodApply := impl.Apply
	impl.Apply = func(op string, args []model.Value) (model.Value, error) {
		if op == "remove" {
			q := args[0].(queue.Queue[string])
			s := q.Slice()
			if len(s) == 0 {
				return model.ErrValue, nil
			}
			out := queue.New[string]()
			for _, x := range s[:len(s)-1] { // drops the BACK element
				out = out.Add(x)
			}
			return out, nil
		}
		return goodApply(op, args)
	}
	// remove's range is the hidden sort Queue, so ground observer terms
	// (which contain only constructors) never exercise it; the axiom
	// check with observational comparison is what catches it.
	r := model.CheckAxioms(sp, impl, model.Config{Depth: 4, MaxInstancesPerAxiom: 400})
	if r.OK() {
		t.Fatal("wrong-end remove not caught")
	}
}

// Boundary-condition bugs are caught: a Front that panics on empty
// instead of returning error would be a harness error; one that returns
// a default value instead of error is a failure.
func TestMissingErrorCaught(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	impl := adapters.Queue(sp)
	goodApply := impl.Apply
	impl.Apply = func(op string, args []model.Value) (model.Value, error) {
		if op == "front" {
			q := args[0].(queue.Queue[string])
			if q.IsEmpty() {
				return "default", nil // should be ErrValue
			}
		}
		return goodApply(op, args)
	}
	r := model.CheckAxioms(sp, impl, model.Config{Depth: 3, MaxInstancesPerAxiom: 200})
	if r.OK() {
		t.Fatal("missing boundary error not caught")
	}
}

// Strictness is the harness's job: implementations never see ErrValue.
func TestHarnessStrictness(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	impl := adapters.Queue(sp)
	goodApply := impl.Apply
	impl.Apply = func(op string, args []model.Value) (model.Value, error) {
		for _, a := range args {
			if model.IsErr(a) {
				t.Fatal("implementation saw ErrValue")
			}
		}
		return goodApply(op, args)
	}
	r := model.CheckAxioms(sp, impl, model.Config{Depth: 3, MaxInstancesPerAxiom: 200})
	if !r.OK() {
		t.Errorf("%s", r)
	}
}

func TestIsErr(t *testing.T) {
	if !model.IsErr(model.ErrValue) {
		t.Error("ErrValue not IsErr")
	}
	if model.IsErr("error") || model.IsErr(nil) {
		t.Error("non-error IsErr")
	}
}

// Reify failures surface as harness errors, not silent passes.
func TestBadReifyReported(t *testing.T) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	impl := adapters.Queue(sp)
	impl.Reify = func(so sig.Sort, v model.Value) (*term.Term, bool, error) {
		return nil, false, nil // claims everything is hidden, even Bool
	}
	r := model.CheckAxioms(sp, impl, model.Config{Depth: 2, MaxInstancesPerAxiom: 50})
	if len(r.Errors) == 0 {
		t.Error("hidden Bool not reported as harness error")
	}
	if !strings.Contains(r.String(), "ERROR") {
		t.Errorf("rendering: %s", r)
	}
}
