// Package specs_test keeps the shipped .spec files honest: each must
// load against the library, pass every checker the toolchain has —
// completeness, consistency (static and ground), the axiom-as-oracle
// property harness — and, where an implementation or representation is
// given here, the model checker and the homomorphism verifier too.
package specs_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"algspec/internal/axtest"
	"algspec/internal/complete"
	"algspec/internal/completion"
	"algspec/internal/consist"
	"algspec/internal/core"
	"algspec/internal/homo"
	"algspec/internal/model"
	"algspec/internal/refimpl"
	"algspec/internal/sig"
	"algspec/internal/speclib"
)

func loadAll(t *testing.T) (*core.Env, []string) {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	files, err := filepath.Glob("*.spec")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no .spec files found")
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sps, err := env.Load(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, sp := range sps {
			names = append(names, sp.Name)
		}
	}
	return env, names
}

func TestShippedSpecsCheckClean(t *testing.T) {
	env, names := loadAll(t)
	for _, name := range names {
		sp := env.MustGet(name)
		if r := complete.Check(sp); !r.OK() {
			t.Errorf("%s: %s", name, r)
		}
		if r := consist.Check(sp); !r.OK() {
			t.Errorf("%s: %s", name, r)
		}
		if r := complete.CheckDynamic(sp, complete.DynamicConfig{Depth: 3}); !r.OK() {
			t.Errorf("%s: %s", name, r)
		}
		if r := consist.CheckGround(sp, consist.GroundConfig{Depth: 3}); !r.OK() {
			t.Errorf("%s: %s", name, r)
		}
	}
}

// TestShippedSpecsOracle runs the property harness over every shipped
// spec: each axiom, instantiated with generated ground values, must hold
// under normalization. A fixed seed keeps the run reproducible.
func TestShippedSpecsOracle(t *testing.T) {
	env, names := loadAll(t)
	for _, name := range names {
		sp := env.MustGet(name)
		rep := axtest.CheckAxioms(sp, axtest.Config{N: 32, Seed: 7})
		if !rep.OK() {
			t.Errorf("%s:\n%s", name, rep)
		}
		if rep.Instances == 0 {
			t.Errorf("%s: oracle checked zero instances", name)
		}
	}
}

// TestShippedSpecsEnginesAgree runs the differential driver over every
// shipped spec: all engine configurations must agree on every corpus
// term.
func TestShippedSpecsEnginesAgree(t *testing.T) {
	env, names := loadAll(t)
	strengthened := 0
	for _, name := range names {
		sp := env.MustGet(name)
		// Certified specs also run the outermost engines and must reach
		// identical normal forms (the certificate's unique-NF claim).
		all := completion.Complete(sp, completion.Config{}).Verdict == completion.Certified
		if all {
			strengthened++
		}
		rep := axtest.CheckEngines(sp, axtest.DiffConfig{Depth: 2, Seed: 7, AllStrategies: all})
		if !rep.OK() {
			t.Errorf("%s:\n%s", name, rep)
		}
		if rep.Corpus == 0 {
			t.Errorf("%s: differential corpus is empty", name)
		}
	}
	if strengthened == 0 {
		t.Error("no shipped spec ran the strengthened all-strategies mode")
	}
}

func TestShippedSpecsBehave(t *testing.T) {
	env, _ := loadAll(t)
	cases := []struct{ spec, in, want string }{
		{"Counter", "value(undo(inc(inc(start))))", "succ(zero)"},
		{"Counter", "undo(start)", "error"},
		{"PQueue", "minpq(insertpq(insertpq(emptypq, succ(zero)), zero))", "zero"},
		{"PQueue", "minpq(deleteMin(insertpq(insertpq(emptypq, succ(zero)), zero)))", "succ(zero)"},
		{"PQueue", "deleteMin(emptypq)", "error"},
		{"Graph", "hasEdge?(addEdge(addEdge(emptyg, 'a, 'b), 'b, 'c), 'a, 'b)", "true"},
		{"Graph", "hasEdge?(addEdge(emptyg, 'a, 'b), 'b, 'a)", "false"},
	}
	for _, c := range cases {
		got, err := env.Eval(c.spec, c.in)
		if err != nil {
			t.Errorf("%s: %s: %v", c.spec, c.in, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("%s: %s = %s, want %s", c.spec, c.in, got, c.want)
		}
	}
}

// The priority queue's min really is insertion-order independent: all
// permutations of three inserts agree.
func TestPQueueOrderIndependence(t *testing.T) {
	env, _ := loadAll(t)
	nums := []string{"zero", "succ(zero)", "succ(succ(zero))"}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		tm := "emptypq"
		for _, i := range p {
			tm = "insertpq(" + tm + ", " + nums[i] + ")"
		}
		if got := env.MustEval("PQueue", "minpq("+tm+")"); got.String() != "zero" {
			t.Errorf("perm %v: min = %s", p, got)
		}
		if got := env.MustEval("PQueue", "minpq(deleteMin("+tm+"))"); got.String() != "succ(zero)" {
			t.Errorf("perm %v: second min = %s", p, got)
		}
	}
}

// ---------------------------------------------------------------------
// Model checking: the native Go reference implementations of the shipped
// specs (internal/refimpl — also the implementations the conformance
// endpoint's e2e suite puts on the wire), tested against nothing but the
// axioms (the paper's §5 discipline).
// ---------------------------------------------------------------------

// TestShippedSpecsModelCheck runs both model checks for each shipped
// spec's Go reference implementation: the axioms must hold on the
// implementation, and the implementation must agree with the symbolic
// interpretation on every ground observer term.
func TestShippedSpecsModelCheck(t *testing.T) {
	env, _ := loadAll(t)
	builders := refimpl.Builders()
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		build := builders[name]
		t.Run(name, func(t *testing.T) {
			sp := env.MustGet(name)
			impl := build(sp)
			cfg := model.Config{Depth: 3, MaxInstancesPerAxiom: 400}
			if r := model.CheckAxioms(sp, impl, cfg); !r.OK() {
				t.Errorf("CheckAxioms: %s", r)
			}
			if r := model.CheckAgainstSpec(sp, impl, cfg); !r.OK() {
				t.Errorf("CheckAgainstSpec: %s", r)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Homomorphism verification: each shipped spec gets a concrete
// representation spec (the implementation written algebraically) and an
// abstraction function Φ, and the verifier discharges every abstract
// axiom under the interpretation — the paper's §4 proof obligation,
// mechanized.
// ---------------------------------------------------------------------

// counterImplSpec represents a Counter directly as the Nat it counts:
// Φ(zero) = start, Φ(succ(n)) = inc(Φ(n)).
const counterImplSpec = `
spec CounterImpl
  uses Bool, Nat

  ops
    start' : -> Nat
    inc'   : Nat -> Nat
    undo'  : Nat -> Nat
    value' : Nat -> Nat

  vars
    n : Nat

  axioms
    [s1] start' = zero
    [i1] inc'(n) = succ(n)
    [u1] undo'(n) = pred(n)
    [v1] value'(n) = n
end
`

// graphImplSpec represents a Graph as a raw edge list; Φ folds consEL
// back into addEdge.
const graphImplSpec = `
spec GraphImpl
  uses Bool, Identifier

  sorts
    EdgeList

  ops
    nilEL     : -> EdgeList
    consEL    : EdgeList, Identifier, Identifier -> EdgeList
    emptyg'   : -> EdgeList
    addEdge'  : EdgeList, Identifier, Identifier -> EdgeList
    hasEdge'? : EdgeList, Identifier, Identifier -> Bool

  vars
    l : EdgeList
    a, b, x, y : Identifier

  axioms
    [g1] emptyg' = nilEL
    [g2] addEdge'(l, a, b) = consEL(l, a, b)
    [h1] hasEdge'?(nilEL, x, y) = false
    [h2] hasEdge'?(consEL(l, a, b), x, y) = if and(same?(a, x), same?(b, y)) then true else hasEdge'?(l, x, y)
end
`

// pqueueImplSpec represents a PQueue as an ascending-sorted Nat list
// (insertion maintains order; min and deleteMin are head and tail);
// Φ folds consNL back into insertpq, which makes the representation
// unconditionally correct — Φ re-sorts whatever the list shape is.
const pqueueImplSpec = `
spec PQueueImpl
  uses Bool, Nat

  sorts
    NatList

  ops
    nilNL       : -> NatList
    consNL      : Nat, NatList -> NatList
    emptypq'    : -> NatList
    insertpq'   : NatList, Nat -> NatList
    minpq'      : NatList -> Nat
    deleteMin'  : NatList -> NatList
    isEmptyPQ'? : NatList -> Bool

  vars
    l : NatList
    m, n : Nat

  axioms
    [p1] emptypq' = nilNL
    [p2] insertpq'(nilNL, n) = consNL(n, nilNL)
    [p3] insertpq'(consNL(m, l), n) = if ltN(n, m) then consNL(n, consNL(m, l)) else consNL(m, insertpq'(l, n))
    [q1] isEmptyPQ'?(nilNL) = true
    [q2] isEmptyPQ'?(consNL(n, l)) = false
    [m1] minpq'(nilNL) = error
    [m2] minpq'(consNL(n, l)) = n
    [d1] deleteMin'(nilNL) = error
    [d2] deleteMin'(consNL(n, l)) = l
end
`

// TestShippedSpecsRepresentations verifies each representation's
// homomorphism: every abstract axiom must hold under the concrete
// interpretation, for all generated representation values.
func TestShippedSpecsRepresentations(t *testing.T) {
	env, _ := loadAll(t)
	for _, src := range []string{counterImplSpec, graphImplSpec, pqueueImplSpec} {
		if _, err := env.Load(src); err != nil {
			t.Fatal(err)
		}
	}
	reps := []struct {
		name string
		rep  homo.Representation
	}{
		{
			name: "CounterAsNat",
			rep: homo.Representation{
				Abstract: env.MustGet("Counter"),
				Concrete: env.MustGet("CounterImpl"),
				AbsSort:  "Counter",
				RepSort:  "Nat",
				OpMap: map[string]string{
					"start": "start'",
					"inc":   "inc'",
					"undo":  "undo'",
					"value": "value'",
				},
				PhiRules: [][2]string{
					{"phi(zero)", "start"},
					{"phi(succ(n))", "inc(phi(n))"},
				},
				PhiVars: map[string]sig.Sort{"n": "Nat"},
			},
		},
		{
			name: "GraphAsEdgeList",
			rep: homo.Representation{
				Abstract: env.MustGet("Graph"),
				Concrete: env.MustGet("GraphImpl"),
				AbsSort:  "Graph",
				RepSort:  "EdgeList",
				OpMap: map[string]string{
					"emptyg":   "emptyg'",
					"addEdge":  "addEdge'",
					"hasEdge?": "hasEdge'?",
				},
				PhiRules: [][2]string{
					{"phi(nilEL)", "emptyg"},
					{"phi(consEL(l, a, b))", "addEdge(phi(l), a, b)"},
				},
				PhiVars: map[string]sig.Sort{
					"l": "EdgeList",
					"a": "Identifier",
					"b": "Identifier",
				},
			},
		},
		{
			name: "PQueueAsNatList",
			rep: homo.Representation{
				Abstract: env.MustGet("PQueue"),
				Concrete: env.MustGet("PQueueImpl"),
				AbsSort:  "PQueue",
				RepSort:  "NatList",
				OpMap: map[string]string{
					"emptypq":    "emptypq'",
					"insertpq":   "insertpq'",
					"minpq":      "minpq'",
					"deleteMin":  "deleteMin'",
					"isEmptyPQ?": "isEmptyPQ'?",
				},
				PhiRules: [][2]string{
					{"phi(nilNL)", "emptypq"},
					{"phi(consNL(n, l))", "insertpq(phi(l), n)"},
				},
				PhiVars: map[string]sig.Sort{
					"n": "Nat",
					"l": "NatList",
				},
			},
		},
	}
	for _, rc := range reps {
		t.Run(rc.name, func(t *testing.T) {
			v, err := homo.New(rc.rep)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := v.Verify(homo.Config{Depth: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Errorf("representation not verified:\n%s", rep)
			}
		})
	}
}
