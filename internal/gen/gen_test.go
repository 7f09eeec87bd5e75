package gen_test

import (
	"fmt"
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

// TestApplications: for every operation of every library spec, at
// depths 1–4 and a range of limits, Applications is the operation
// applied to Instantiations of fresh variables x0…xn, term by term (the
// very argument terms) and in order.
func TestApplications(t *testing.T) {
	env := speclib.BaseEnv()
	for _, name := range speclib.Names {
		sp := env.MustGet(name)
		g := gen.New(sp, gen.Config{})
		for _, op := range sp.Sig.Ops() {
			vars := make([]*term.Term, len(op.Domain))
			for i, d := range op.Domain {
				vars[i] = term.NewVar(fmt.Sprintf("x%d", i), d)
			}
			for depth := 1; depth <= 4; depth++ {
				for _, limit := range []int{0, 1, 7, 1500, 2000} {
					got := g.Applications(op, depth, limit)
					insts := g.Instantiations(vars, depth, limit)
					if len(got) != len(insts) {
						t.Errorf("%s %s depth %d limit %d: %d applications, %d instantiations",
							name, op.Name, depth, limit, len(got), len(insts))
						continue
					}
					for i, inst := range insts {
						if !appliedTo(got[i], op, vars, inst) {
							t.Errorf("%s %s depth %d limit %d: application %d = %s, want it applied to %v",
								name, op.Name, depth, limit, i, got[i], inst)
							break
						}
					}
				}
			}
		}
	}
}

// appliedTo reports whether p is op applied to exactly the terms inst
// binds to vars.
func appliedTo(p *term.Term, op *sig.Operation, vars []*term.Term, inst map[string]*term.Term) bool {
	if p.Kind != term.Op || p.Sym != op.Name || p.Sort != op.Range || len(p.Args) != len(vars) {
		return false
	}
	for i, v := range vars {
		if p.Args[i] != inst[v.Sym] {
			return false
		}
	}
	return true
}

// TestApplicationsInterned: with an interner configured the arguments
// are its canonical terms, while the probe nodes stay plain.
func TestApplicationsInterned(t *testing.T) {
	sp := speclib.BaseEnv().MustGet("Queue")
	in := term.NewInterner()
	for _, p := range gen.New(sp, gen.Config{Intern: in}).Applications(sp.Sig.MustOp("add"), 3, 0) {
		if in.Canon(p.Args[0]) != p.Args[0] || in.Canon(p.Args[1]) != p.Args[1] {
			t.Fatalf("%s: arguments not interned", p)
		}
		if in.Canon(p) == p {
			t.Fatalf("%s: probe node interned", p)
		}
	}
}

// TestApplicationsAllocations: Applications builds its probes in slabs,
// so it allocates as often for 2000 probes as for 7.
func TestApplicationsAllocations(t *testing.T) {
	sp := speclib.BaseEnv().MustGet("Symboltable")
	g := gen.New(sp, gen.Config{})
	op := sp.Sig.MustOp("retrieve")
	if n := len(g.Applications(op, 4, 2000)); n != 2000 {
		t.Fatalf("%d probes, want 2000", n)
	}
	allocs := func(limit int) float64 {
		return testing.AllocsPerRun(20, func() { g.Applications(op, 4, limit) })
	}
	if few, many := allocs(7), allocs(2000); many != few {
		t.Errorf("Applications allocates %v times for 7 probes, %v for 2000", few, many)
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

// ObserverContexts is the one observation hypothesis of the checkers:
// an observable sort, or one the caller reifies, is observed through the
// bare hole; a hidden sort out of depth has no context; a hidden sort is
// wrapped in every operation taking it, nested up to the depth, and each
// argument off the hole's path is the Minimal term of its sort.
func TestObserverContexts(t *testing.T) {
	env := speclib.BaseEnv()
	g := gen.New(env.MustGet("Queue"), gen.Config{})
	for _, c := range []struct {
		so    sig.Sort
		extra []sig.Sort
	}{{"Bool", nil}, {"Item", nil}, {"Queue", []sig.Sort{"Queue"}}} {
		got := g.ObserverContexts(c.so, c.extra, 2)
		if len(got) != 1 || !got[0].Equal(term.NewVar(gen.HoleVar, c.so)) {
			t.Errorf("%s (extra %v): contexts %v, want the bare hole", c.so, c.extra, got)
		}
	}
	if got := g.ObserverContexts("Queue", nil, 0); len(got) != 0 {
		t.Errorf("Queue at depth 0: contexts %v, want none", got)
	}
	var got []string
	for _, c := range g.ObserverContexts("Queue", nil, 2) {
		got = append(got, c.String())
	}
	want := []string{
		"front(add(__hole, 'a))",
		"isEmpty?(add(__hole, 'a))",
		"front(__hole)",
		"front(remove(__hole))",
		"isEmpty?(remove(__hole))",
		"isEmpty?(__hole)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Queue at depth 2:\n got %q\nwant %q", got, want)
	}

	for _, name := range []string{"Queue", "Stack", "Symboltable", "Map"} {
		sp := env.MustGet(name)
		g := gen.New(sp, gen.Config{})
		ctxs := g.ObserverContexts(sig.Sort(name), nil, 2)
		if len(ctxs) == 0 {
			t.Errorf("%s: no context at depth 2", name)
		}
		for _, c := range ctxs {
			if !sp.Observable(c.Sort) || holes(c) != 1 {
				t.Errorf("%s: context %s has root sort %s and %d holes", name, c, c.Sort, holes(c))
			}
			c.Walk(func(u *term.Term) bool {
				if holes(u) > 0 {
					return true
				}
				if min, _ := g.Minimal(u.Sort); !u.Equal(min) {
					t.Errorf("%s: context %s fills %s, want %s", name, c, u, min)
				}
				return false
			})
		}
	}
}

// holes counts the HoleVar occurrences in t.
func holes(t *term.Term) int {
	n := 0
	t.Walk(func(u *term.Term) bool {
		if u.Kind == term.Var && u.Sym == gen.HoleVar {
			n++
		}
		return true
	})
	return n
}
