package sig

import (
	"strings"
	"testing"
)

func mustSig(t *testing.T) *Signature {
	t.Helper()
	s := New("Queue")
	if err := s.AddSort("Bool"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSort("Queue"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddParam("Item"); err != nil {
		t.Fatal(err)
	}
	ops := []*Operation{
		{Name: "new", Range: "Queue"},
		{Name: "add", Domain: []Sort{"Queue", "Item"}, Range: "Queue"},
		{Name: "front", Domain: []Sort{"Queue"}, Range: "Item"},
		{Name: "isEmpty?", Domain: []Sort{"Queue"}, Range: "Bool"},
		{Name: "true", Range: "Bool"},
	}
	for _, op := range ops {
		if err := s.Declare(op); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestDeclareAndLookup(t *testing.T) {
	s := mustSig(t)
	op, ok := s.Op("add")
	if !ok {
		t.Fatal("add not found")
	}
	if op.Arity() != 2 || op.Range != "Queue" {
		t.Errorf("add = %v", op)
	}
	c, _ := s.Op("new")
	if c.Arity() != 0 {
		t.Error("new should be constant")
	}
	if _, ok := s.Op("missing"); ok {
		t.Error("missing found")
	}
	if op.Owner != "Queue" {
		t.Errorf("owner = %q, want Queue", op.Owner)
	}
}

func TestDeclareErrors(t *testing.T) {
	s := mustSig(t)
	cases := []struct {
		name string
		op   *Operation
	}{
		{"duplicate", &Operation{Name: "new", Range: "Queue"}},
		{"unknown domain", &Operation{Name: "x", Domain: []Sort{"Nope"}, Range: "Queue"}},
		{"unknown range", &Operation{Name: "y", Range: "Nope"}},
		{"empty name", &Operation{Name: "", Range: "Queue"}},
	}
	for _, c := range cases {
		if err := s.Declare(c.op); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestSortFlavours(t *testing.T) {
	s := New("S")
	if err := s.AddAtomSort("Identifier"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddParam("Item"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSort("Plain"); err != nil {
		t.Fatal(err)
	}
	if !s.IsAtomSort("Identifier") || s.IsParam("Identifier") {
		t.Error("Identifier flavour wrong")
	}
	if !s.IsParam("Item") || s.IsAtomSort("Item") {
		t.Error("Item flavour wrong")
	}
	if s.IsParam("Plain") || s.IsAtomSort("Plain") {
		t.Error("Plain flavour wrong")
	}
	if !s.OpenSort("Identifier") || !s.OpenSort("Item") || s.OpenSort("Plain") || s.OpenSort("Nope") {
		t.Error("OpenSort must hold of exactly the atom and parameter sorts")
	}
	if err := s.AddSort("Plain"); err == nil {
		t.Error("duplicate sort accepted")
	}
	if err := s.MarkAtomSort("Plain"); err != nil {
		t.Fatal(err)
	}
	if !s.IsAtomSort("Plain") {
		t.Error("MarkAtomSort did not take")
	}
	if err := s.MarkAtomSort("Nope"); err == nil {
		t.Error("MarkAtomSort on unknown sort accepted")
	}
}

func TestOpsQueries(t *testing.T) {
	s := mustSig(t)
	if got := len(s.Ops()); got != 5 {
		t.Errorf("Ops len = %d", got)
	}
	withQ := s.OpsWithRange("Queue")
	if len(withQ) != 2 || withQ[0].Name != "new" || withQ[1].Name != "add" {
		t.Errorf("OpsWithRange(Queue) = %v", withQ)
	}
	taking := s.OpsTaking("Queue")
	if len(taking) != 3 {
		t.Errorf("OpsTaking(Queue) = %v", taking)
	}
	// Declaration order is preserved.
	names := make([]string, 0)
	for _, op := range s.Ops() {
		names = append(names, op.Name)
	}
	want := "new add front isEmpty? true"
	if strings.Join(names, " ") != want {
		t.Errorf("order = %v", names)
	}
}

func TestMerge(t *testing.T) {
	base := New("Bool")
	if err := base.AddSort("Bool"); err != nil {
		t.Fatal(err)
	}
	if err := base.Declare(&Operation{Name: "true", Range: "Bool"}); err != nil {
		t.Fatal(err)
	}

	s := New("Queue")
	if err := s.Merge(base); err != nil {
		t.Fatal(err)
	}
	if !s.HasSort("Bool") {
		t.Error("merge lost Bool")
	}
	if op, ok := s.Op("true"); !ok || op.Owner != "Bool" {
		t.Error("merge lost true or its owner")
	}
	// Re-merging is idempotent.
	if err := s.Merge(base); err != nil {
		t.Fatal(err)
	}
	// Conflicting functionality is rejected.
	bad := New("Evil")
	if err := bad.AddSort("Bool"); err != nil {
		t.Fatal(err)
	}
	if err := bad.AddSort("Other"); err != nil {
		t.Fatal(err)
	}
	if err := bad.Declare(&Operation{Name: "true", Range: "Other"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(bad); err == nil {
		t.Error("conflicting merge accepted")
	}
	// Param flavour conflicts are rejected.
	p := New("P")
	if err := p.AddParam("Bool"); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(p); err == nil {
		t.Error("param flavour conflict accepted")
	}
}

func TestClone(t *testing.T) {
	s := mustSig(t)
	c := s.Clone()
	if err := c.Declare(&Operation{Name: "extra", Range: "Queue"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Op("extra"); ok {
		t.Error("clone shares op table with original")
	}
	if _, ok := c.Op("add"); !ok {
		t.Error("clone lost add")
	}
}

func TestValidate(t *testing.T) {
	s := mustSig(t)
	if err := s.Validate(); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
	// A sort with no reachable constant fails validation.
	bad := New("Bad")
	if err := bad.AddSort("Loop"); err != nil {
		t.Fatal(err)
	}
	if err := bad.Declare(&Operation{Name: "spin", Domain: []Sort{"Loop"}, Range: "Loop"}); err != nil {
		t.Fatal(err)
	}
	if err := bad.Validate(); err == nil {
		t.Error("uninhabited sort accepted")
	}
	// Parameter sorts are inhabited by assumption.
	ok := New("OK")
	if err := ok.AddParam("Item"); err != nil {
		t.Fatal(err)
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("param-only signature rejected: %v", err)
	}
}

func TestStringRendering(t *testing.T) {
	s := mustSig(t)
	out := s.String()
	for _, want := range []string{"signature Queue", "param Item", "add : Queue, Item -> Queue", "new : -> Queue"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q in:\n%s", want, out)
		}
	}
	op := s.MustOp("front")
	if op.String() != "front : Queue -> Item" {
		t.Errorf("op String = %q", op.String())
	}
}

func TestMustOpPanics(t *testing.T) {
	s := mustSig(t)
	defer func() {
		if recover() == nil {
			t.Error("MustOp on unknown did not panic")
		}
	}()
	s.MustOp("nope")
}
