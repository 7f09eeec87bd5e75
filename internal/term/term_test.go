package term

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Builders used throughout the tests.
func newQ() *Term           { return NewOp("new", "Queue") }
func add(q, i *Term) *Term  { return NewOp("add", "Queue", q, i) }
func atom(s string) *Term   { return NewAtom(s, "Item") }
func qvar(n string) *Term   { return NewVar(n, "Queue") }
func front(q *Term) *Term   { return NewOp("front", "Item", q) }
func isEmpty(q *Term) *Term { return NewOp("isEmpty?", "Bool", q) }

func TestEqual(t *testing.T) {
	a := add(newQ(), atom("x"))
	b := add(newQ(), atom("x"))
	if !a.Equal(b) {
		t.Error("structurally equal terms not Equal")
	}
	if a.Equal(add(newQ(), atom("y"))) {
		t.Error("different atoms Equal")
	}
	if a.Equal(newQ()) {
		t.Error("different shapes Equal")
	}
	if !a.Equal(a) {
		t.Error("not reflexive")
	}
	if a.Equal(nil) {
		t.Error("Equal(nil) true")
	}
	// Errors are equal regardless of sort.
	if !NewErr("Queue").Equal(NewErr("Item")) {
		t.Error("errors of different sorts not Equal")
	}
	// Vars compare by name and sort.
	if qvar("q").Equal(NewVar("q", "Item")) {
		t.Error("same-name different-sort vars Equal")
	}
	if !qvar("q").Equal(qvar("q")) {
		t.Error("same vars not Equal")
	}
	// Atoms compare by spelling and sort.
	if atom("x").Equal(NewAtom("x", "Identifier")) {
		t.Error("same-spelling different-sort atoms Equal")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := randomTerm(rng, 4)
		b := randomTerm(rng, 4)
		if a.Equal(b) && a.StableHash() != b.StableHash() {
			t.Fatalf("equal terms with different hashes: %s", a)
		}
	}
	// Same term built twice hashes identically.
	if add(newQ(), atom("x")).StableHash() != add(newQ(), atom("x")).StableHash() {
		t.Error("hash not deterministic")
	}
	if NewErr("A").StableHash() != NewErr("B").StableHash() {
		t.Error("error hashes differ across sorts")
	}
}

// randomTerm builds a random Queue-ish term.
func randomTerm(rng *rand.Rand, depth int) *Term {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			return newQ()
		case 1:
			return atom(string(rune('a' + rng.Intn(3))))
		default:
			return NewErr("Queue")
		}
	}
	switch rng.Intn(3) {
	case 0:
		return add(randomTerm(rng, depth-1), atom(string(rune('a'+rng.Intn(3)))))
	case 1:
		return NewOp("remove", "Queue", randomTerm(rng, depth-1))
	default:
		return NewIf(isEmpty(randomTerm(rng, depth-1)), randomTerm(rng, depth-1), randomTerm(rng, depth-1))
	}
}

func TestSizeDepth(t *testing.T) {
	if newQ().Size() != 1 || newQ().Depth() != 1 {
		t.Error("constant size/depth wrong")
	}
	tm := add(add(newQ(), atom("x")), atom("y"))
	if tm.Size() != 5 {
		t.Errorf("Size = %d, want 5", tm.Size())
	}
	if tm.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", tm.Depth())
	}
}

func TestGroundAndVars(t *testing.T) {
	g := add(newQ(), atom("x"))
	if !g.IsGround() {
		t.Error("ground term not ground")
	}
	v := add(qvar("q"), NewVar("i", "Item"))
	if v.IsGround() {
		t.Error("open term ground")
	}
	vars := v.Vars()
	if len(vars) != 2 || vars[0].Sym != "q" || vars[1].Sym != "i" {
		t.Errorf("Vars = %v", vars)
	}
	// Duplicates are reported once, first occurrence order.
	dup := add(add(qvar("q"), NewVar("i", "Item")), NewVar("i", "Item"))
	if got := dup.Vars(); len(got) != 2 {
		t.Errorf("Vars dedup = %v", got)
	}
	if !v.HasVar("q") || v.HasVar("zz") {
		t.Error("HasVar wrong")
	}
}

func TestPathsAndReplace(t *testing.T) {
	tm := add(add(newQ(), atom("x")), atom("y"))
	if got := tm.At(Path{0, 1}); !got.Equal(atom("x")) {
		t.Errorf("At([0 1]) = %v", got)
	}
	if tm.At(Path{5}) != nil {
		t.Error("invalid path not nil")
	}
	rep := tm.ReplaceAt(Path{0, 1}, atom("z"))
	if !rep.At(Path{0, 1}).Equal(atom("z")) {
		t.Error("ReplaceAt did not replace")
	}
	// Original is untouched (persistence).
	if !tm.At(Path{0, 1}).Equal(atom("x")) {
		t.Error("ReplaceAt mutated original")
	}
	// Unaffected branches are shared.
	if rep.Args[1] != tm.Args[1] {
		t.Error("ReplaceAt copied unaffected branch")
	}
	if tm.ReplaceAt(Path{9}, atom("z")) != nil {
		t.Error("invalid ReplaceAt path not nil")
	}
	// Root replacement.
	if !tm.ReplaceAt(nil, newQ()).Equal(newQ()) {
		t.Error("root ReplaceAt wrong")
	}
	pos := tm.Positions()
	if len(pos) != tm.Size() {
		t.Errorf("Positions = %d, Size = %d", len(pos), tm.Size())
	}
	// Every position addresses a subterm.
	for _, p := range pos {
		if tm.At(p) == nil {
			t.Errorf("Positions produced invalid path %v", p)
		}
	}
}

func TestSubtermsWalk(t *testing.T) {
	tm := add(newQ(), atom("x"))
	subs := tm.Subterms()
	if len(subs) != 3 {
		t.Errorf("Subterms = %d", len(subs))
	}
	// Walk can prune.
	count := 0
	tm.Walk(func(u *Term) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("pruned walk visited %d", count)
	}
}

func TestRename(t *testing.T) {
	tm := add(qvar("q"), NewVar("i", "Item"))
	r := tm.Rename(func(s string) string { return s + "1" })
	if got := r.Vars(); got[0].Sym != "q1" || got[1].Sym != "i1" {
		t.Errorf("Rename = %v", got)
	}
	// No variables: same pointer (sharing preserved).
	g := add(newQ(), atom("x"))
	if g.Rename(func(s string) string { return s + "1" }) != g {
		t.Error("Rename copied a ground term")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		t    *Term
		want string
	}{
		{newQ(), "new"},
		{add(newQ(), atom("x")), "add(new, 'x)"},
		{NewErr("Queue"), "error"},
		{qvar("q"), "q"},
		{NewIf(isEmpty(qvar("q")), atom("x"), front(qvar("q"))), "if isEmpty?(q) then 'x else front(q)"},
		{True(), "true"},
		{False(), "false"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	if !strings.Contains(add(newQ(), atom("x")).GoString(), "Queue") {
		t.Error("GoString lacks sorts")
	}
}

func TestPredicates(t *testing.T) {
	if !True().IsTrue() || True().IsFalse() {
		t.Error("True predicates wrong")
	}
	if !False().IsFalse() || False().IsTrue() {
		t.Error("False predicates wrong")
	}
	if !Bool(true).IsTrue() || !Bool(false).IsFalse() {
		t.Error("Bool builder wrong")
	}
	iff := NewIf(True(), newQ(), newQ())
	if !iff.IsIf() {
		t.Error("IsIf wrong")
	}
	if !NewErr("Q").IsErr() || newQ().IsErr() {
		t.Error("IsErr wrong")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	terms := make([]*Term, 50)
	for i := range terms {
		terms[i] = randomTerm(rng, 3)
	}
	for _, a := range terms {
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%s, itself) != 0", a)
		}
		for _, b := range terms {
			if Compare(a, b) != -Compare(b, a) {
				t.Fatalf("antisymmetry fails for %s vs %s", a, b)
			}
			if a.Equal(b) != (Compare(a, b) == 0) {
				t.Fatalf("Compare/Equal disagree for %s vs %s", a, b)
			}
		}
	}
	sort.Slice(terms, func(i, j int) bool { return Compare(terms[i], terms[j]) < 0 })
	for i := 1; i < len(terms); i++ {
		if Compare(terms[i-1], terms[i]) > 0 {
			t.Fatal("Compare order not sortable")
		}
	}
}

// Property: ReplaceAt(p, At(p)) is identity (up to Equal).
func TestQuickReplaceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm := randomTerm(r, 4)
		for _, p := range tm.Positions() {
			sub := tm.At(p)
			if sub == nil {
				return false
			}
			if !tm.ReplaceAt(p, sub).Equal(tm) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Size equals the number of Positions; Depth is bounded by Size.
func TestQuickSizeDepthInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm := randomTerm(r, 5)
		return tm.Size() == len(tm.Positions()) && tm.Depth() <= tm.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewIfSort(t *testing.T) {
	iff := NewIf(True(), atom("x"), atom("y"))
	if iff.Sort != "Item" {
		t.Errorf("if sort = %s", iff.Sort)
	}
}

func TestVarsDeterministic(t *testing.T) {
	tm := add(add(qvar("b"), NewVar("a", "Item")), NewVar("c", "Item"))
	got := tm.Vars()
	want := []string{"b", "a", "c"}
	names := make([]string, len(got))
	for i, v := range got {
		names[i] = v.Sym
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Vars order = %v, want %v", names, want)
	}
}
