// Benchmarks regenerating the per-experiment results indexed in
// DESIGN.md §4 (E1–E8) and the ablations of §5. The paper itself reports
// no tables or figures; each benchmark quantifies one of its claims —
// most prominently §5's prediction that interpreting the algebra
// symbolically in place of an implementation costs "a significant loss
// in efficiency" while remaining behaviourally transparent.
//
// Run with: go test -bench=. -benchmem
package algspec

import (
	"fmt"
	"testing"

	"algspec/internal/adt/boundedqueue"
	"algspec/internal/adt/ident"
	"algspec/internal/adt/queue"
	"algspec/internal/adt/symtab"
	"algspec/internal/compiler"
	"algspec/internal/complete"
	"algspec/internal/consist"
	"algspec/internal/gen"
	"algspec/internal/homo"
	"algspec/internal/lang"
	"algspec/internal/reps"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/subst"
	"algspec/internal/term"
)

// ---------------------------------------------------------------------
// E1 — §3 Queue: the specification as an executable artifact vs the
// native Go queue, over a fixed FIFO workload.

// queueWorkload returns an op script: true = add, false = remove.
func queueWorkload(n int) []bool {
	ops := make([]bool, 0, n)
	size := 0
	for i := 0; i < n; i++ {
		if size > 0 && i%3 == 0 {
			ops = append(ops, false)
			size--
		} else {
			ops = append(ops, true)
			size++
		}
	}
	return ops
}

func BenchmarkE1QueueSpecVsNative(b *testing.B) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	items := []string{"a", "b", "c", "d"}
	for _, n := range []int{16, 64, 256} {
		ops := queueWorkload(n)
		b.Run(fmt.Sprintf("native/ops=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queue.New[string]()
				for j, add := range ops {
					if add {
						q = q.Add(items[j%len(items)])
					} else {
						q, _ = q.Remove()
					}
				}
				if !q.IsEmpty() {
					if _, err := q.Front(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("spec/ops=%d", n), func(b *testing.B) {
			sys := rewrite.New(sp)
			for i := 0; i < b.N; i++ {
				state := term.NewOp("new", "Queue")
				for j, add := range ops {
					if add {
						state = term.NewOp("add", "Queue", state,
							term.NewAtom(items[j%len(items)], "Item"))
					} else {
						state = sys.MustNormalize(term.NewOp("remove", "Queue", state))
					}
				}
				sys.MustNormalize(term.NewOp("isEmpty?", "Bool", state))
			}
		})
	}
}

// ---------------------------------------------------------------------
// E2 — §4: mechanical verification of the Symboltable representations.

func BenchmarkE2VerifyStackRepresentation(b *testing.B) {
	env := speclib.BaseEnv()
	for _, depth := range []int{3, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := reps.SymtabAsStack(env, true)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := v.Verify(homo.Config{Depth: depth, MaxInstancesPerAxiom: 500})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.OK() {
					b.Fatal("verification failed")
				}
			}
		})
	}
}

func BenchmarkE2VerifyListRepresentation(b *testing.B) {
	env := speclib.BaseEnv()
	for i := 0; i < b.N; i++ {
		v, err := reps.SymtabAsList(env)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := v.Verify(homo.Config{Depth: 4, MaxInstancesPerAxiom: 500})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatal("verification failed")
		}
	}
}

// ---------------------------------------------------------------------
// E3 — §3: the sufficient-completeness checker over the whole library.

func BenchmarkE3CompletenessLibrary(b *testing.B) {
	env := speclib.BaseEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range speclib.Names {
			if r := complete.Check(env.MustGet(name)); !r.OK() {
				b.Fatalf("%s incomplete", name)
			}
		}
	}
}

func BenchmarkE3CompletenessDynamic(b *testing.B) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	for i := 0; i < b.N; i++ {
		if r := complete.CheckDynamic(sp, complete.DynamicConfig{Depth: 4}); !r.OK() {
			b.Fatal("incomplete")
		}
	}
}

// ---------------------------------------------------------------------
// E4 — §3: the consistency checker (critical pairs + ground testing).

func BenchmarkE4CriticalPairsLibrary(b *testing.B) {
	env := speclib.BaseEnv()
	for i := 0; i < b.N; i++ {
		for _, name := range speclib.Names {
			if r := consist.Check(env.MustGet(name)); !r.OK() {
				b.Fatalf("%s inconsistent", name)
			}
		}
	}
}

func BenchmarkE4GroundConsistency(b *testing.B) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	for i := 0; i < b.N; i++ {
		if r := consist.CheckGround(sp, consist.GroundConfig{Depth: 4}); !r.OK() {
			b.Fatal("inconsistent")
		}
	}
}

// ---------------------------------------------------------------------
// E5 — §4 Bounded Queue: ring-buffer operations and the Φ computation.

func BenchmarkE5BoundedQueueOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q := boundedqueue.New[string](3)
		q, _ = q.Add("A")
		q, _ = q.Add("B")
		q, _ = q.Add("C")
		q, _ = q.Remove()
		q, _ = q.Add("D")
		if got := q.Abstract(); len(got) != 3 {
			b.Fatal("wrong abstract value")
		}
	}
}

func BenchmarkE5BoundedQueueSpec(b *testing.B) {
	env := speclib.BaseEnv()
	tm, err := env.ParseTerm("BoundedQueue",
		"frontq(addq(removeq(addq(addq(addq(emptyq,'A),'B),'C)),'D))")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := env.System("BoundedQueue")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nf := sys.MustNormalize(tm); nf.Kind != term.Atom {
			b.Fatal("bad normal form")
		}
	}
}

// ---------------------------------------------------------------------
// E6 — §4 knows lists: compiling the adapted language.

func BenchmarkE6KnowsCompile(b *testing.B) {
	src := compiler.GenProgram(compiler.GenConfig{
		Blocks: 16, DeclsPerBlock: 4, UsesPerBlock: 6, Nesting: 2, Seed: 5, Knows: true,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, diags := compiler.Parse(src, compiler.Knows)
		if len(diags) > 0 {
			b.Fatal(diags)
		}
		if res := compiler.CheckKnows(prog, symtab.NewKnowsTable()); !res.OK() {
			b.Fatal(res.Diags)
		}
	}
}

// ---------------------------------------------------------------------
// E7 — §5 interchangeability: one front end, three symbol tables. The
// "spec" series quantifies the paper's "significant loss in efficiency".

func BenchmarkE7SymbolTables(b *testing.B) {
	symSpec := speclib.BaseEnv().MustGet("Symboltable")
	for _, blocks := range []int{4, 16} {
		src := compiler.GenProgram(compiler.GenConfig{
			Blocks: blocks, DeclsPerBlock: 4, UsesPerBlock: 6, Nesting: 2, Seed: 9,
		})
		prog, diags := compiler.Parse(src, compiler.Plain)
		if len(diags) > 0 {
			b.Fatal(diags)
		}
		impls := []struct {
			name string
			mk   func() symtab.Table
		}{
			{"stack", symtab.NewStackTable},
			{"list", symtab.NewListTable},
			{"spec", func() symtab.Table { return symtab.MustNewSymbolic(symSpec) }},
		}
		for _, impl := range impls {
			b.Run(fmt.Sprintf("%s/blocks=%d", impl.name, blocks), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if res := compiler.Check(prog, impl.mk()); !res.OK() {
						b.Fatal(res.Diags)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// E8 — engine micro-costs: parse, sort-check, match, normalize.

func BenchmarkE8ParseAndCheckLibrary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := speclib.BaseEnv()
		if len(env.Names()) != len(speclib.Names) {
			b.Fatal("load failed")
		}
	}
}

func BenchmarkE8ParseOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lang.Parse(speclib.Symboltable); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8Match(b *testing.B) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	ax := sp.Own[5] // remove(add(q,i)) = ...
	g := gen.New(sp, gen.Config{})
	targets := g.Enumerate("Queue", 5)
	// Wrap each in remove(...) so the pattern applies.
	wrapped := make([]*term.Term, len(targets))
	for i, t := range targets {
		wrapped[i] = term.NewOp("remove", "Queue", t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := wrapped[i%len(wrapped)]
		subst.TryMatch(ax.LHS, tm)
	}
}

func BenchmarkE8Normalize(b *testing.B) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	for _, depth := range []int{8, 32, 128} {
		// A right chain of adds, then drain fully by removes: linear
		// work in depth per remove, quadratic total.
		state := "new"
		for i := 0; i < depth; i++ {
			state = fmt.Sprintf("add(%s, 'x%d)", state, i%7)
		}
		for i := 0; i < depth; i++ {
			state = "remove(" + state + ")"
		}
		tm, err := env.ParseTerm("Queue", state)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("adds=%d", depth), func(b *testing.B) {
			sys := rewrite.New(sp)
			for i := 0; i < b.N; i++ {
				nf := sys.MustNormalize(tm)
				if !nf.Equal(term.NewOp("new", "Queue")) {
					b.Fatalf("nf = %s", nf)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// Innermost vs outermost strategy on the same ground workload. The
// machine serves innermost only, so both arms are pinned to the
// interpreter and the ablation measures redex order alone.
func BenchmarkAblationStrategy(b *testing.B) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	tm, err := env.ParseTerm("Queue",
		"front(remove(remove(add(add(add(add(new,'a),'b),'c),'d))))")
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range []rewrite.Strategy{rewrite.Innermost, rewrite.Outermost} {
		b.Run(st.String(), func(b *testing.B) {
			sys := rewrite.New(sp, rewrite.WithoutCompiledTier(), rewrite.WithStrategy(st))
			for i := 0; i < b.N; i++ {
				sys.MustNormalize(tm)
			}
		})
	}
}

// Stack-of-arrays vs flat-list symbol table under compiler load.
func BenchmarkAblationSymtabRep(b *testing.B) {
	src := compiler.GenProgram(compiler.GenConfig{
		Blocks: 32, DeclsPerBlock: 8, UsesPerBlock: 12, Nesting: 0, Seed: 3,
	})
	prog, diags := compiler.Parse(src, compiler.Plain)
	if len(diags) > 0 {
		b.Fatal(diags)
	}
	b.Run("stack-of-arrays", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compiler.Check(prog, symtab.NewStackTable())
		}
	})
	b.Run("flat-list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compiler.Check(prog, symtab.NewListTable())
		}
	})
}

// Interned vs uninterned identifier equality.
func BenchmarkAblationInterning(b *testing.B) {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("some_quite_long_identifier_name_%d", i%8)
	}
	b.Run("interned", func(b *testing.B) {
		ids := make([]ident.Identifier, len(names))
		for i, n := range names {
			ids[i] = ident.Intern(n)
		}
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			if ids[i%64].Same(ids[(i+8)%64]) {
				n++
			}
		}
	})
	b.Run("uninterned", func(b *testing.B) {
		ids := make([]ident.Identifier, len(names))
		for i, n := range names {
			ids[i] = ident.Uninterned(n)
		}
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			if ids[i%64].Same(ids[(i+8)%64]) {
				n++
			}
		}
	})
}

// runQueueSpec drives the E1 queue workload through one engine.
func runQueueSpec(b *testing.B, sys *rewrite.System, ops []bool, items []string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		state := term.NewOp("new", "Queue")
		for j, add := range ops {
			if add {
				state = term.NewOp("add", "Queue", state,
					term.NewAtom(items[j%len(items)], "Item"))
			} else {
				state = sys.MustNormalize(term.NewOp("remove", "Queue", state))
			}
		}
		sys.MustNormalize(term.NewOp("isEmpty?", "Bool", state))
	}
}

// Compiled machine tier (register-addressed match programs, build-tree
// evaluation over arena scratch terms) vs the MatchBind interpreter, on
// the E1 queue workload. The optionless engine resolves to the compiled
// tier; WithoutCompiledTier pins the interpreter.
func BenchmarkAblationCompiledTier(b *testing.B) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	ops := queueWorkload(64)
	items := []string{"a", "b", "c", "d"}
	b.Run("compiled", func(b *testing.B) {
		runQueueSpec(b, rewrite.New(sp), ops, items)
	})
	b.Run("interp", func(b *testing.B) {
		runQueueSpec(b, rewrite.New(sp, rewrite.WithoutCompiledTier()), ops, items)
	})
}

// batchEvalTerms builds the deterministic workload for BenchmarkBatchEval:
// a spread of queue observations over growing states.
func batchEvalTerms(n int) []*term.Term {
	out := make([]*term.Term, 0, n)
	for i := 0; i < n; i++ {
		state := term.NewOp("new", "Queue")
		for j := 0; j <= i%9; j++ {
			state = term.NewOp("add", "Queue", state,
				term.NewAtom(fmt.Sprintf("x%d", (i+j)%5), "Item"))
		}
		if i%2 == 0 {
			out = append(out, term.NewOp("front", "Item", state))
		} else {
			out = append(out, term.NewOp("isEmpty?", "Bool",
				term.NewOp("remove", "Queue", state)))
		}
	}
	return out
}

// NormalizeAll over a term batch, sequential vs parallel. Each iteration
// forks a fresh engine, as a checker does for each batch.
func BenchmarkBatchEval(b *testing.B) {
	env := speclib.BaseEnv()
	sp := env.MustGet("Queue")
	items := batchEvalTerms(256)
	sys := rewrite.New(sp)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := sys.Fork()
				if _, errs := f.NormalizeAll(items, workers); errs != nil {
					b.Fatal(errs)
				}
			}
		})
	}
}
