package main

import (
	"testing"

	"algspec/internal/rewrite"
	"algspec/internal/speclib"
)

// TestModelsAgreeWithInterpreter pins the native models to the
// specification: every generated term's model normal form must equal
// the interpreter tier's, under the term's own strategy.
func TestModelsAgreeWithInterpreter(t *testing.T) {
	env := speclib.BaseEnv()
	g := newTermGen(3)
	draws := []func() genTerm{
		func() genTerm { return g.queue("Queue", 16+g.r.Intn(33)) },
		g.list, g.nat, g.set, g.symtab, g.coldTerm,
	}
	for _, draw := range draws {
		for i := 0; i < 150; i++ {
			gt := draw()
			sys, err := env.System(gt.Spec)
			if err != nil {
				t.Fatal(err)
			}
			opts := []rewrite.Option{rewrite.WithoutCompiledTier()}
			if gt.Strategy == "outermost" {
				opts = append(opts, rewrite.WithStrategy(rewrite.Outermost))
			}
			tm, err := env.ParseTerm(gt.Spec, gt.Term)
			if err != nil {
				t.Fatalf("%s: %q: %v", gt.Spec, gt.Term, err)
			}
			nf, err := sys.Fork(opts...).Normalize(tm)
			if err != nil {
				t.Fatalf("%s: %q: %v", gt.Spec, gt.Term, err)
			}
			if nf.String() != gt.NF {
				t.Fatalf("%s: %q: interpreter %s, model %s", gt.Spec, gt.Term, nf, gt.NF)
			}
		}
	}
}
