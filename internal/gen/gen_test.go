package gen_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"algspec/internal/gen"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

func gQueue(t *testing.T) *gen.Generator {
	t.Helper()
	return gen.New(speclib.BaseEnv().MustGet("Queue"), gen.Config{})
}

func TestEnumerateCounts(t *testing.T) {
	g := gQueue(t)
	// Queue terms: depth 1 -> {new}; depth d -> 1 + 3*|depth d-1|
	// (three default atoms for Item).
	counts := []struct{ depth, want int }{
		{1, 1},  // new
		{2, 4},  // new + add(new, 'a|'b|'c)
		{3, 13}, // 1 + 3*4
		{4, 40}, // 1 + 3*13
	}
	for _, c := range counts {
		got := g.Enumerate("Queue", c.depth)
		if len(got) != c.want {
			t.Errorf("depth %d: %d terms, want %d", c.depth, len(got), c.want)
		}
		for _, tm := range got {
			if tm.Depth() > c.depth {
				t.Errorf("term %s exceeds depth %d", tm, c.depth)
			}
			if !tm.IsGround() {
				t.Errorf("term %s not ground", tm)
			}
			if tm.Sort != "Queue" {
				t.Errorf("term %s has sort %s", tm, tm.Sort)
			}
		}
	}
	if got := g.Enumerate("Queue", 0); got != nil {
		t.Errorf("depth 0 = %v", got)
	}
}

func TestEnumerateAtomSorts(t *testing.T) {
	g := gQueue(t)
	items := g.Enumerate("Item", 3)
	if len(items) != 3 {
		t.Errorf("items = %v", items)
	}
	for _, tm := range items {
		if tm.Kind != term.Atom {
			t.Errorf("item %s not an atom", tm)
		}
	}
	bools := g.Enumerate("Bool", 1)
	if len(bools) != 2 {
		t.Errorf("bools = %v", bools)
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	a := gQueue(t).Enumerate("Queue", 4)
	b := gQueue(t).Enumerate("Queue", 4)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("order differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestEnumerateNoDuplicates(t *testing.T) {
	got := gQueue(t).Enumerate("Queue", 4)
	seen := map[string]bool{}
	for _, tm := range got {
		if seen[tm.String()] {
			t.Fatalf("duplicate term %s", tm)
		}
		seen[tm.String()] = true
	}
}

func TestMaxTermsCap(t *testing.T) {
	sp := speclib.BaseEnv().MustGet("Queue")
	g := gen.New(sp, gen.Config{MaxTerms: 5})
	if got := g.Enumerate("Queue", 6); len(got) > 5 {
		t.Errorf("cap ignored: %d", len(got))
	}
}

func TestMinDepth(t *testing.T) {
	g := gQueue(t)
	if d, ok := g.MinDepth("Queue"); !ok || d != 1 {
		t.Errorf("MinDepth(Queue) = %d %v", d, ok)
	}
	if d, ok := g.MinDepth("Item"); !ok || d != 1 {
		t.Errorf("MinDepth(Item) = %d %v", d, ok)
	}
	// Stack-of-arrays: a stack needs depth 1 (newstack), an array 1.
	sp := speclib.BaseEnv().MustGet("SymtabImpl")
	g2 := gen.New(sp, gen.Config{})
	if d, ok := g2.MinDepth("Stack"); !ok || d != 1 {
		t.Errorf("MinDepth(Stack) = %d %v", d, ok)
	}
}

func TestRandom(t *testing.T) {
	g := gQueue(t)
	for i := 0; i < 200; i++ {
		tm, err := g.Random("Queue", 5)
		if err != nil {
			t.Fatal(err)
		}
		if tm.Sort != "Queue" || !tm.IsGround() || tm.Depth() > 5 {
			t.Fatalf("bad random term %s", tm)
		}
	}
	// Random at impossible depth fails.
	if _, err := g.Random("Queue", 0); err == nil {
		t.Error("depth-0 random accepted")
	}
	// Deterministic under a fixed seed.
	sp := speclib.BaseEnv().MustGet("Queue")
	g1 := gen.New(sp, gen.Config{Seed: 42})
	g2 := gen.New(sp, gen.Config{Seed: 42})
	for i := 0; i < 20; i++ {
		a, _ := g1.Random("Queue", 4)
		b, _ := g2.Random("Queue", 4)
		if !a.Equal(b) {
			t.Fatal("seeded randomness not reproducible")
		}
	}
}

func TestInstantiations(t *testing.T) {
	g := gQueue(t)
	vars := []*term.Term{
		term.NewVar("q", "Queue"),
		term.NewVar("i", "Item"),
	}
	insts := g.Instantiations(vars, 2, 0)
	// 4 queues (depth<=2) x 3 items = 12.
	if len(insts) != 12 {
		t.Errorf("instantiations = %d", len(insts))
	}
	for _, m := range insts {
		if m["q"].Sort != "Queue" || m["i"].Sort != "Item" {
			t.Errorf("bad assignment %v", m)
		}
	}
	// Limit is honoured.
	if got := g.Instantiations(vars, 2, 5); len(got) != 5 {
		t.Errorf("limited = %d", len(got))
	}
	// No variables -> caller handles; empty vars gives one empty
	// assignment per the implementation's contract (cross product of
	// nothing).
	if got := g.Instantiations(nil, 2, 0); len(got) != 1 {
		t.Errorf("empty vars = %d", len(got))
	}
}

// TestApplications: an operation applied to every instantiation of
// fresh variables x0…xn, in Instantiations order, capped at the limit.
func TestApplications(t *testing.T) {
	g := gQueue(t)
	sp := speclib.BaseEnv().MustGet("Queue")
	add := sp.Sig.MustOp("add")
	got := g.Applications(add, 2, 0)
	insts := g.Instantiations([]*term.Term{term.NewVar("x0", "Queue"), term.NewVar("x1", "Item")}, 2, 0)
	if len(got) != 12 || len(insts) != 12 {
		t.Fatalf("applications = %d, instantiations = %d, want 12", len(got), len(insts))
	}
	for i, inst := range insts {
		if want := term.NewOp("add", "Queue", inst["x0"], inst["x1"]); !got[i].Equal(want) {
			t.Errorf("application %d = %s, want %s", i, got[i], want)
		}
	}
	if n := len(g.Applications(add, 2, 5)); n != 5 {
		t.Errorf("limited applications = %d, want 5", n)
	}
	if c := g.Applications(sp.Sig.MustOp("new"), 2, 0); len(c) != 1 || c[0].String() != "new" {
		t.Errorf("constant applications = %v", c)
	}
}

// boxSpec has a sort whose ground terms are at least two deep.
const boxSpec = `
spec Box
  uses Nat
  ops
    box : Nat -> Box
end
`

// TestSamplesDrawOrder pins the planners' draw order, which seeded
// callers depend on: Samples makes exactly the MinimalAssignment then
// RandomAssignment calls and stops at the first failed draw.
func TestSamplesDrawOrder(t *testing.T) {
	env := speclib.BaseEnv()
	if _, err := env.Load(boxSpec); err != nil {
		t.Fatal(err)
	}
	sp := env.MustGet("Box")
	vars := []*term.Term{term.NewVar("n", "Nat"), term.NewVar("b", "Box")}
	g, ref := gen.New(sp, gen.Config{Seed: 9}), gen.New(sp, gen.Config{Seed: 9})
	got, err := g.Samples(vars, 5, 3)
	if err != nil || len(got) != 6 {
		t.Fatalf("samples = %d, %v; want 6, nil", len(got), err)
	}
	min, _ := ref.MinimalAssignment(vars)
	want := []map[string]*term.Term{min}
	for i := 0; i < 5; i++ {
		asn, _ := ref.RandomAssignment(vars, 3)
		want = append(want, asn)
	}
	for i := range want {
		if got[i]["n"].String() != want[i]["n"].String() || got[i]["b"].String() != want[i]["b"].String() {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	// At depth 1 the minimal assignment exists but the first draw fails.
	if got, err := g.Samples(vars, 3, 1); len(got) != 1 || err == nil {
		t.Errorf("too-deep samples = %v, %v; want the minimal one and an error", got, err)
	}
	_, _ = ref.RandomAssignment(vars, 1)
	sameStream(t, g, ref, "Nat")
}

// TestUninhabitedDraws: for a sort with no ground terms (which a checked
// spec cannot declare, so the spec is built by hand) Samples draws
// nothing, while SampledApplications still draws the variables before it.
func TestUninhabitedDraws(t *testing.T) {
	s := sig.New("Loop")
	for _, err := range []error{
		s.AddParam("Item"), s.AddSort("Loop"),
		s.Declare(&sig.Operation{Name: "grow", Domain: []sig.Sort{"Loop"}, Range: "Loop"}),
		s.Declare(&sig.Operation{Name: "peek", Domain: []sig.Sort{"Item", "Loop"}, Range: "Item"}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	sp := &spec.Spec{Name: "Loop", Sig: s}
	vars := []*term.Term{term.NewVar("x0", "Item"), term.NewVar("x1", "Loop")}
	g, ref := gen.New(sp, gen.Config{Seed: 9}), gen.New(sp, gen.Config{Seed: 9})
	if got, err := g.Samples(vars, 3, 3); got != nil || err != nil {
		t.Errorf("samples = %v, %v; want nil, nil", got, err)
	}
	if got := g.SampledApplications(s.MustOp("peek"), 3, 3); len(got) != 0 {
		t.Errorf("applications = %v", got)
	}
	_, _ = ref.RandomAssignment(vars, 3)
	sameStream(t, g, ref, "Item")
}

// sameStream requires two generators to be at the same point of their
// random streams.
func sameStream(t *testing.T, g, ref *gen.Generator, so sig.Sort) {
	t.Helper()
	for i := 0; i < 8; i++ {
		a, errA := g.Random(so, 3)
		b, errB := ref.Random(so, 3)
		if (errA == nil) != (errB == nil) || (errA == nil && !a.Equal(b)) {
			t.Fatalf("random streams diverged at draw %d: %v, %v vs %v, %v", i, a, errA, b, errB)
		}
	}
}

// TestSampledApplications: the minimal application, then one per
// random assignment.
func TestSampledApplications(t *testing.T) {
	sp := speclib.BaseEnv().MustGet("Queue")
	g := gen.New(sp, gen.Config{Seed: 3})
	got := g.SampledApplications(sp.Sig.MustOp("front"), 4, 3)
	if len(got) != 5 || got[0].String() != "front(new)" {
		t.Fatalf("sampled applications = %v", got)
	}
	for _, p := range got {
		if p.Sym != "front" || p.Args[0].Sort != "Queue" || !p.IsGround() {
			t.Errorf("bad probe %s", p)
		}
	}
}

// Property: enumeration at depth d is a prefix-closed subset of depth
// d+1 (same terms all appear).
func TestQuickEnumerateMonotone(t *testing.T) {
	g := gQueue(t)
	f := func(d uint8) bool {
		depth := int(d%3) + 1
		small := g.Enumerate("Queue", depth)
		bigSet := map[string]bool{}
		for _, tm := range g.Enumerate("Queue", depth+1) {
			bigSet[tm.String()] = true
		}
		for _, tm := range small {
			if !bigSet[tm.String()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestShrinkCandidatesOrder pins the one shrink move set: the sort's
// minimal term first, then the distinct same-sort proper subterms,
// smallest first. The BST term repeats node(emptyt, zero, emptyt) and
// emptyt; each is offered once, and the larger left subtree comes after
// the smaller subtree it contains.
func TestShrinkCandidatesOrder(t *testing.T) {
	env := speclib.BaseEnv()
	g := gen.New(env.MustGet("BST"), gen.Config{})
	for _, c := range []struct {
		src  string
		want []string
	}{
		{"node(node(node(emptyt, zero, emptyt), succ(zero), emptyt), zero, node(emptyt, zero, emptyt))",
			[]string{"emptyt", "node(emptyt, zero, emptyt)", "node(node(emptyt, zero, emptyt), succ(zero), emptyt)"}},
		{"succ(succ(zero))", []string{"zero", "succ(zero)"}},
		{"emptyt", nil},
	} {
		tm, err := env.ParseTerm("BST", c.src)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, cand := range g.ShrinkCandidates(tm) {
			got = append(got, cand.String())
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ShrinkCandidates(%s) = %q, want %q", c.src, got, c.want)
		}
	}
}
