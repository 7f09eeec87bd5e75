package rewrite_test

import (
	"sync"
	"testing"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// TestForkArenaNeverLeaksScratchTerms drives many Forks of one compiled
// system concurrently over shared inputs (run under -race in CI) and
// asserts the scratch/interned boundary: every term a Fork returns —
// and every subterm of it — is interned in the shared interner, never
// an arena-owned scratch node. A scratch leak here is a use-after-free
// in waiting: the arena recycles its chunks on the next Normalize.
func TestForkArenaNeverLeaksScratchTerms(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	sp := env.MustGet("Queue")
	base := rewrite.New(sp)
	if base.Tier() != "compiled" {
		t.Fatalf("base system resolved to tier %q, want compiled", base.Tier())
	}

	srcs := []string{
		"front(add(add(new, 'a), 'b))",
		"remove(add(add(add(new, 'a), 'b), 'c))",
		"isEmpty?(remove(add(new, 'a)))",
		"front(new)", // engine error: exercises the Detach path
	}
	inputs := make([]*term.Term, len(srcs))
	for i, s := range srcs {
		tm, err := env.ParseTerm("Queue", s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		inputs[i] = base.Interner().Canon(tm)
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
		go func() {
			defer wg.Done()
			sys := base.Fork()
			for r := 0; r < rounds; r++ {
				for i, in := range inputs {
					nf, err := sys.Normalize(in)
					if err != nil {
						continue // the error case is exercised on purpose
					}
					if !allInterned(nf, base.Interner()) {
						select {
						case leaks <- leak{srcs[i], nf}:
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(leaks)
	for l := range leaks {
		t.Fatalf("normal form of %s leaked a scratch subterm: %s", l.src, l.nf)
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
