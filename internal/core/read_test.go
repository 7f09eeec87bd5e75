package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"algspec/internal/core"
	"algspec/internal/corpus"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// readEnv is the library plus the specs shipped under specs/, loaded
// once for the reader's tests and fuzz target.
var readEnv = sync.OnceValue(func() *core.Env {
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	paths, _ := filepath.Glob("../../specs/*.spec")
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			panic(err)
		}
		env.MustLoad(string(src))
	}
	return env
})

// diffRead checks InternTerm against ParseTermAs on one input: the same
// acceptance and the same error, the node Canon returns for
// ParseTermAs's tree, interning exactly Canon's nodes, and nothing
// interned on a rejection. It reports whether the input was accepted.
func diffRead(t testing.TB, env *core.Env, name, src string, expected sig.Sort) bool {
	t.Helper()
	tree, err := env.ParseTermAs(name, src, expected)
	in := term.NewInterner()
	c, cerr := env.InternTerm(in, name, src, expected)
	if err != nil {
		if cerr == nil || cerr.Error() != err.Error() {
			t.Fatalf("%s %q (sort %q): ParseTermAs %v, InternTerm %v", name, src, expected, err, cerr)
		}
		if in.Size() != 0 {
			t.Fatalf("%s %q: a rejected term interned %d nodes", name, src, in.Size())
		}
		return false
	}
	if cerr != nil {
		t.Fatalf("%s %q (sort %q): ParseTermAs accepts %v; InternTerm %v", name, src, expected, tree, cerr)
	}
	if expected != "" && tree.Sort != expected {
		t.Fatalf("%s %q: read at sort %s, want %s", name, src, tree.Sort, expected)
	}
	n := in.Size()
	if in.Canon(tree) != c || in.Size() != n {
		t.Fatalf("%s %q: InternTerm interned other nodes than Canon (%d, then %d)", name, src, n, in.Size())
	}
	in2 := term.NewInterner()
	c2 := in2.Canon(tree)
	if c3, _ := env.InternTerm(in2, name, src, expected); c3 != c2 || in2.Size() != n {
		t.Fatalf("%s %q: InternTerm after Canon returned another node or interned more (%d vs %d)", name, src, in2.Size(), n)
	}
	return true
}

// forEachRead calls read on every input the reader's tests read: each
// golden spec's input terms, and each normal form with its input's root
// sort (as WAL replay reads it); the conformance batteries; 2,000
// seeded random terms, each read with and without its root sort; and
// adversarial() against three specs and six root sorts.
func forEachRead(t *testing.T, env *core.Env, read func(name, src string, expected sig.Sort)) {
	paths, err := filepath.Glob("../../specs/golden/*.golden")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		name := strings.TrimSuffix(strings.TrimPrefix(lines[0], "-- Golden normal forms for "), ".")
		var in *term.Term
		for _, line := range lines[1:] {
			switch {
			case line == "" || strings.HasPrefix(line, "--"):
			case strings.HasPrefix(line, "  => "):
				read(name, strings.TrimPrefix(line, "  => "), in.Sort)
			default:
				read(name, line, "")
				if in, err = env.ParseTerm(name, line); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, name := range corpus.BatterySpecs() {
		for _, src := range corpus.Battery(name) {
			read(name, src, "")
		}
	}
	r := rand.New(rand.NewSource(1))
	for _, name := range []string{"Queue", "List", "Nat", "Set", "Symboltable"} {
		sp := env.MustGet(name)
		for k := 0; k < 400; k++ {
			// Root sorts are the ranges of the spec's own operations:
			// its principal sort and its observers'.
			so := sp.Sig.MustOp(sp.OwnOps[r.Intn(len(sp.OwnOps))]).Range
			src := randomTerm(r, sp, so, 2+r.Intn(6))
			read(name, src, "")
			read(name, src, so)
		}
	}
	for _, c := range adversarial() {
		for _, name := range []string{"Queue", "Symboltable", "Bool"} {
			for _, so := range []sig.Sort{"", "Queue", "Item", "Bool", "Identifier", "Nope"} {
				read(name, c, so)
			}
		}
	}
}

// TestReadTermMatchesParser reads every input of forEachRead through
// both entry points. What they accept is pinned by specs/golden and
// what they reject by testdata/rejections.golden.
func TestReadTermMatchesParser(t *testing.T) {
	env := readEnv()
	n, accepted := 0, 0
	forEachRead(t, env, func(name, src string, expected sig.Sort) {
		n++
		if diffRead(t, env, name, src, expected) {
			accepted++
		}
	})
	t.Logf("%d reads agree, %d of them accepted", n, accepted)
}

// randomTerm spells a random well-sorted ground term of sort so, cold-
// style: any operation of the signature, fresh atoms, and now and then
// an annotation, a conditional, error, a comment or odd spacing.
func randomTerm(r *rand.Rand, sp *spec.Spec, so sig.Sort, depth int) string {
	if r.Intn(40) == 0 {
		return "error"
	}
	var ops []*sig.Operation
	for _, op := range sp.Sig.OpsWithRange(so) {
		if depth > 0 || op.Arity() == 0 {
			ops = append(ops, op)
		}
	}
	if sp.Sig.OpenSort(so) && (len(ops) == 0 || r.Intn(3) > 0) {
		a := fmt.Sprintf("'%s%d", []string{"a", "b", "x", "é", "日"}[r.Intn(5)], r.Intn(1000))
		if r.Intn(8) == 0 {
			a += ":" + string(so)
		}
		return a
	}
	if len(ops) == 0 {
		return "error"
	}
	if depth > 1 && r.Intn(30) == 0 {
		return fmt.Sprintf("if %s then %s else %s", randomTerm(r, sp, sig.BoolSort, depth-1),
			randomTerm(r, sp, so, depth-1), randomTerm(r, sp, so, depth-1))
	}
	op := ops[r.Intn(len(ops))]
	if op.Arity() == 0 {
		if r.Intn(10) == 0 {
			return op.Name + "()"
		}
		return op.Name
	}
	args := make([]string, op.Arity())
	for i, d := range op.Domain {
		args[i] = randomTerm(r, sp, d, depth-1)
	}
	sep := []string{", ", ",", " ,\n\t", " -- note\n, "}[r.Intn(4)]
	return op.Name + "(" + strings.Join(args, sep) + ")"
}

// adversarial lists inputs at the edges of the grammar and the sort
// rules.
func adversarial() []string {
	nest := func(levels int) string {
		return strings.Repeat("remove(", levels-1) + "new" + strings.Repeat(")", levels-1)
	}
	return []string{
		"", " ", "-- only a comment", "front(add(new, 'a)) -- trailing", "front(-- inside\nnew)",
		"front(add(new, 'ü))", "frönt(new)", "add(new, '日本)", "'x²", "'é", "new ",
		"'x", "'x:Item", "'x : Item", "add(new, 'x:Item)", "add(new, 'x:Queue)", "'x:", "'x:if", "'x:Nope",
		"'x:Identifier", "'x:Attributelist", "''x", "'x'", "'", "'_", "'1",
		"error", "front(error)", "add(error, error)", "add(new, error)",
		"if true then 'a else 'b", "if true then error else 'b", "if true then 'a else error",
		"if true then error else error", "if isEmpty?(new) then new else error",
		"if true then if false then error else new else error", "if 'a then new else new",
		"if true then new", "if true new else new", "if", "then", "else",
		"isEmpty?(if true then error else new)", "front(if true then new else add(new, 'a))",
		"new()", "new(new)", "add(new)", "add(new, 'a, 'b)", "front", "front()", "isEmpty?",
		"front(new))", "front(,new)", "front(new,)", "front(new", "(new)", "->", "front(new) = new",
		"[x]", "spec", "end", "native", "front(new) extra", "new new", "new, new", "-x", "new -", "#", "new $",
		"true", "not(true)", "and(true, false)", "false()",
		nest(10000), nest(10001),
		strings.Repeat("if true then ", 50) + "new" + strings.Repeat(" else new", 50),
	}
}

// FuzzReadTerm is the fuzz target of the ground-term reader: on any
// input, against any of a few specs and root sorts, its two entry
// points accept the same terms and report the same errors, and the
// interning one interns Canon's nodes of the other's tree, or none.
func FuzzReadTerm(f *testing.F) {
	for _, c := range adversarial()[:len(adversarial())-3] {
		f.Add(c, uint8(0))
	}
	for _, src := range corpus.Battery("Symboltable") {
		f.Add(src, uint8(7))
	}
	f.Add("front(add(add(new, 'a), 'b))", uint8(1))
	env := readEnv()
	names := []string{"Queue", "Symboltable", "Nat", "Bool"}
	sorts := []sig.Sort{"", "Queue", "Item", "Bool", "Nat", "Identifier", "Symboltable", "Nope"}
	f.Fuzz(func(t *testing.T, src string, pick uint8) {
		diffRead(t, env, names[pick%4], src, sorts[pick/4%8])
	})
}

// TestInternTermAllocatesNothing pins the interning path's steady
// state: reading a term whose nodes are all interned allocates nothing,
// also when a conditional's branch sort has to be inferred (the failed
// first attempt builds no message), and also while other goroutines
// read the same term into the same interner.
func TestInternTermAllocatesNothing(t *testing.T) {
	env := readEnv()
	sys, err := env.System("Queue")
	if err != nil {
		t.Fatal(err)
	}
	in := sys.Interner()
	for _, src := range []string{
		"front(remove(add(add(add(new, 'a), 'b), 'c)))",
		"if true then error else new",
	} {
		want, err := env.InternTerm(in, "Queue", src, "")
		if err != nil {
			t.Fatal(err)
		}
		read := func() {
			if got, err := env.InternTerm(in, "Queue", src, ""); got != want || err != nil {
				t.Errorf("InternTerm(%q) = %p, %v; want %p", src, got, err, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
			t.Errorf("InternTerm of interned %q: %v allocs/op, want 0", src, allocs)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						read()
					}
				}
			}()
		}
		allocs := testing.AllocsPerRun(1000, read)
		close(stop)
		wg.Wait()
		if allocs != 0 {
			t.Errorf("InternTerm of %q beside 3 concurrent readers: %v allocs/op, want 0", src, allocs)
		}
	}
}
