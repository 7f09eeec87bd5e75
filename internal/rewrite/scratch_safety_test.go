package rewrite_test

import (
	"sync"
	"testing"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// TestForkArenaNeverLeaksScratchTerms drives many Forks of several
// compiled systems concurrently over shared inputs (run under -race in
// CI) and asserts the scratch/interned boundary: every term a Fork
// returns — and every subterm of it — is interned in its own system's
// interner, never an arena-owned scratch node and never another
// interner's node. A scratch leak here is a use-after-free in waiting:
// the arena recycles its chunks on the next Normalize. The systems draw
// their scratch sets, canon caches included, from one free list, and
// Queue is compiled twice, so two interners hold a node for the same
// leaf: a cache hit for one must never answer the other.
func TestForkArenaNeverLeaksScratchTerms(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	srcs := map[string][]string{
		"Queue": {
			"front(add(add(new, 'a), 'b))",
			"remove(add(add(add(new, 'a), 'b), 'c))",
			"isEmpty?(remove(add(new, 'a)))",
			"new",
			"front(new)", // engine error: exercises the Detach path
		},
		"Nat": {
			"addN(succ(succ(zero)), succ(zero))",
			"zero",
			"ltN(succ(zero), zero)",
		},
		"Symboltable": {
			"retrieve(add(enterblock(add(init, 'x, 'a1)), 'y, 'a2), 'x)",
			"leaveblock(enterblock(init))",
		},
	}
	type job struct {
		base   *rewrite.System
		srcs   []string
		inputs []*term.Term
	}
	var jobs []job
	for _, name := range []string{"Queue", "Queue", "Nat", "Symboltable"} {
		base := rewrite.New(env.MustGet(name))
		if base.Tier() != "compiled" {
			t.Fatalf("%s resolved to tier %q, want compiled", name, base.Tier())
		}
		j := job{base: base, srcs: srcs[name]}
		for _, s := range j.srcs {
			tm, err := env.ParseTerm(name, s)
			if err != nil {
				t.Fatalf("parse %q: %v", s, err)
			}
			// Both a plain term and its canonical twin: a plain leaf reaches
			// the canon cache, the twin the already-interned path.
			j.inputs = append(j.inputs, tm, base.Interner().Canon(tm))
		}
		jobs = append(jobs, j)
	}

	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	type leak struct {
		src string
		nf  *term.Term
	}
	leaks := make(chan leak, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			sys := j.base.Fork()
			for r := 0; r < rounds; r++ {
				for i, in := range j.inputs {
					nf, err := sys.Normalize(in)
					if err != nil {
						continue // the error case is exercised on purpose
					}
					if !allInterned(nf, j.base.Interner()) {
						select {
						case leaks <- leak{j.srcs[i/2], nf}:
						default:
						}
						return
					}
				}
			}
		}(jobs[w%len(jobs)])
	}
	wg.Wait()
	close(leaks)
	for l := range leaks {
		t.Fatalf("normal form of %s leaked a scratch or foreign subterm: %s", l.src, l.nf)
	}
}

func allInterned(t *term.Term, in *term.Interner) bool {
	if t.Scratch() || !in.Interned(t) {
		return false
	}
	for _, a := range t.Args {
		if !allInterned(a, in) {
			return false
		}
	}
	return true
}

// TestNormalTagOnlyOnInternedTerms asserts the other half of the
// boundary contract: the normal-form stamp (nfTag) is only ever placed
// on interned terms. The compiled tier stamps at the Canon boundary —
// after interning — so a stamped scratch node would mean the stamp ran
// on the wrong side of the boundary and a recycled node could
// masquerade as "already normal" in a later evaluation.
func TestNormalTagOnlyOnInternedTerms(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	for _, name := range speclib.Names {
		sp := env.MustGet(name)
		sys := rewrite.New(sp)
		for _, a := range sp.All {
			// The rules are hash-consed on compilation, so Canon returns
			// the system's own rule nodes.
			for _, side := range []*term.Term{a.LHS, a.RHS} {
				walkTerms(sys.Interner().Canon(side), func(n *term.Term) {
					if n.NormalTag() != 0 && (n.Scratch() || !sys.Interner().Interned(n)) {
						t.Errorf("%s: rule %s: stamped un-interned term %s", name, a.Label, n)
					}
				})
			}
		}
	}

	// Normalize something, then check the result spine: stamped and
	// interned, all the way down.
	env2 := core.NewEnv()
	env2.MustLoad(speclib.Sources...)
	sp := env2.MustGet("Queue")
	sys := rewrite.New(sp)
	in, err := env2.ParseTerm("Queue", "remove(add(add(new, 'a), 'b))")
	if err != nil {
		t.Fatal(err)
	}
	nf, err := sys.Normalize(in)
	if err != nil {
		t.Fatal(err)
	}
	walkTerms(nf, func(n *term.Term) {
		if n.Scratch() || !sys.Interner().Interned(n) {
			t.Errorf("normal form subterm %s is not interned", n)
		}
		if n.NormalTag() == 0 {
			t.Errorf("normal form subterm %s was not stamped", n)
		}
	})
}

func walkTerms(t *term.Term, f func(*term.Term)) {
	f(t)
	for _, a := range t.Args {
		walkTerms(a, f)
	}
}
