// Client-side evaluators for conformance sessions: EngineClient answers
// programs with the rewrite engine itself (self-conformance — the
// oracle judging the oracle, which must always pass; loadgen uses it to
// turn /v1/conform traffic into a checked workload), and ModelClient
// answers them with a native model.Impl, the configuration the e2e
// tests and the adt conform CLI use to put reference implementations
// and their mutants on the wire.
package conform

import (
	"fmt"

	"algspec/internal/core"
	"algspec/internal/model"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// DecodeTree rebuilds a ground term from its wire rendering.
func DecodeTree(t Tree) (*term.Term, error) {
	switch t.Kind {
	case "atom":
		return term.NewAtom(t.Sym, sig.Sort(t.Sort)), nil
	case "error":
		return term.NewErr(sig.Sort(t.Sort)), nil
	case "op":
		args := make([]*term.Term, len(t.Args))
		for i, a := range t.Args {
			sub, err := DecodeTree(a)
			if err != nil {
				return nil, err
			}
			args[i] = sub
		}
		return term.NewOp(t.Sym, sig.Sort(t.Sort), args...), nil
	default:
		return nil, fmt.Errorf("conform: unknown tree kind %q", t.Kind)
	}
}

// EngineClient evaluates programs on a private fork of the engine. Each
// client owns its fork, so concurrent sessions need one client each —
// core.Env's cached systems are not safe to Normalize concurrently.
type EngineClient struct {
	sys    *rewrite.System
	intern *term.Interner
}

// NewEngineClient builds an engine-backed evaluator for one spec.
func NewEngineClient(env *core.Env, specName string) (*EngineClient, error) {
	sys, err := env.System(specName)
	if err != nil {
		return nil, err
	}
	return &EngineClient{sys: sys.Fork(), intern: sys.Interner()}, nil
}

// Observe normalizes the program and reports its normal form.
func (c *EngineClient) Observe(p ProgramMsg) (Observation, error) {
	t, err := DecodeTree(p.Tree)
	if err != nil {
		return Observation{}, err
	}
	nf, err := c.sys.Normalize(c.intern.Canon(t))
	if err != nil {
		return Observation{}, err
	}
	if nf.IsErr() {
		return Observation{IsError: true}, nil
	}
	return Observation{Value: nf.String()}, nil
}

// ModelClient evaluates programs against a native implementation
// through the model harness: bottom-up evaluation with lazy if and
// strict error propagation, then reification of the observable result
// (model.Harness.Observe, the step the model checks take in each
// observer context).
type ModelClient struct {
	h *model.Harness
}

// NewModelClient wraps an implementation of the given spec.
func NewModelClient(sp *spec.Spec, impl *model.Impl) *ModelClient {
	return &ModelClient{h: model.NewHarness(sp, impl)}
}

// Observe evaluates the program in the implementation and reifies the
// result. Programs only reach a client for sorts it declared
// observable, so a non-reifiable result is an implementation bug, not a
// protocol state.
func (c *ModelClient) Observe(p ProgramMsg) (Observation, error) {
	t, err := DecodeTree(p.Tree)
	if err != nil {
		return Observation{}, err
	}
	obs, err := c.h.Observe(t)
	if err != nil {
		return Observation{}, err
	}
	if obs.IsErr() {
		return Observation{IsError: true}, nil
	}
	return Observation{Value: obs.String()}, nil
}
