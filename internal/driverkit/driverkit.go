// Package driverkit generates conformance drivers from specifications:
// `adt gen-driver` emits, for any spec, a self-contained Go package —
// an operation interface derived from the signature, a thin adapter,
// and a baked property/oracle test suite — that a user drops next to
// their implementation and runs with plain `go test`, no algspec
// dependency.
//
// The suite is planned with the same machinery the /v1/conform
// endpoint uses (seeded instance enumeration and random instantiation
// from internal/gen, observable lifting from internal/conform): every
// own axiom is instantiated with its minimal assignment plus N seeded
// random ones and both sides are lifted into observable contexts
// (axiom pairs, judged implementation-against-itself — the axioms are
// the oracle), and every ground observer probe is baked together with
// its engine normal form as a constructor tree (observation pairs,
// judged in the implementation's own value universe). The emitted
// runtime — internal/driverkit/rt, embedded verbatim — replays the
// pairs with the paper's semantics and shrinks any failing axiom
// instance to a minimal counterexample.
package driverkit

import (
	"fmt"
	"sort"
	"strings"

	"algspec/internal/conform"
	"algspec/internal/core"
	"algspec/internal/driverkit/rt"
	"algspec/internal/gen"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/subst"
	"algspec/internal/term"
)

// Config tunes generation. The zero value is usable and fully
// deterministic (fixed seed).
type Config struct {
	// Pkg names the emitted package ("" = lowercased spec + "driver").
	Pkg string
	// N is the number of random instantiations per axiom on top of the
	// guaranteed minimal one (0 = 4, capped at 64).
	N int
	// Depth bounds randomly drawn ground terms (0 = 3, capped at 4).
	Depth int
	// Seed seeds the instance generator (0 = a fixed default, so bare
	// runs are reproducible).
	Seed int64
	// ObserveSorts lists extra sorts the implementation can represent
	// canonically, beyond the always-observable Bool, atom and
	// parameter sorts (see conform.PlanConfig.ObserveSorts).
	ObserveSorts []sig.Sort
}

const (
	// maxPairs caps the baked suite.
	maxPairs = 192
	// maxShrink caps the shrink candidates tried on a failure.
	maxShrink = 64
)

func (c Config) withDefaults(specName string) Config {
	if c.Pkg == "" {
		c.Pkg = defaultPkgName(specName)
	}
	if c.N == 0 {
		c.N = 4
	}
	if c.N > 64 {
		c.N = 64
	}
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.Depth > 4 {
		c.Depth = 4
	}
	if c.Seed == 0 {
		c.Seed = 0x6177_7474 // gen's fixed default
	}
	return c
}

func defaultPkgName(specName string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(specName) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	return b.String() + "driver"
}

// Package is one generated driver package.
type Package struct {
	Spec string
	Pkg  string
	// Suite is the baked suite, also rendered into Files["suite.go"]:
	// the generator's tests run it in-process through rt.Run, which is
	// byte-for-byte the code emitted as rt.go.
	Suite *rt.Suite
	// AxiomPairs/ObsPairs split Suite.Pairs by kind; Skipped counts
	// planned pairs dropped (stuck or engine-unequal normal forms) and
	// pairs beyond maxPairs.
	AxiomPairs, ObsPairs, Skipped int
	// Files maps emitted file name to contents.
	Files map[string]string
}

// Build plans and emits the driver package for a spec.
func Build(env *core.Env, sp *spec.Spec, cfg Config) (*Package, error) {
	cfg = cfg.withDefaults(sp.Name)
	if err := checkPkgName(cfg.Pkg); err != nil {
		return nil, err
	}
	for _, so := range cfg.ObserveSorts {
		if !sp.Sig.HasSort(so) {
			return nil, fmt.Errorf("driverkit: %s has no sort %q", sp.Name, so)
		}
	}
	g := gen.New(sp, gen.Config{Seed: cfg.Seed})
	sys, err := env.System(sp.Name)
	if err != nil {
		return nil, err
	}
	f, intern := sys.Fork(), sys.Interner()
	norm := func(t *term.Term) (*term.Term, error) { return f.Normalize(intern.Canon(t)) }

	p := &Package{
		Spec: sp.Name,
		Pkg:  cfg.Pkg,
		Suite: &rt.Suite{
			Spec:      sp.Name,
			Seed:      cfg.Seed,
			Min:       map[string]*rt.Tree{},
			MaxShrink: maxShrink,
		},
	}
	seen := map[string]bool{}

	// Axiom pairs: both sides of each instantiated axiom in each
	// observable context. A pair is baked only when the engine agrees
	// the two probes reduce to one constructor value — a stuck corner
	// has no defined observation, and a generated suite must never ask
	// for one.
	for _, ax := range sp.Own {
		vars := ax.LHS.Vars()
		// A failed draw only ends this axiom's instances early.
		asns, _ := g.Samples(vars, cfg.N, cfg.Depth)
		ctxs := conform.ObserverContexts(sp, g, cfg.ObserveSorts, ax.LHS.Sort, 2)
		for _, ctx := range ctxs {
			hole := subst.Subst{conform.HoleVar: ax.LHS}
			tl := hole.Apply(ctx)
			hole[conform.HoleVar] = ax.RHS
			tr := hole.Apply(ctx)
			for _, asn := range asns {
				s := subst.Subst(asn)
				a, b := s.Apply(tl), s.Apply(tr)
				key := a.String() + " = " + b.String()
				if a.Equal(b) || seen[key] {
					continue
				}
				seen[key] = true
				if len(p.Suite.Pairs) >= maxPairs {
					p.Skipped++
					continue
				}
				nfa, err := norm(a)
				if err != nil {
					return nil, fmt.Errorf("driverkit: normalizing %s: %w", a, err)
				}
				nfb, err := norm(b)
				if err != nil {
					return nil, fmt.Errorf("driverkit: normalizing %s: %w", b, err)
				}
				if !rewrite.IsConstructorForm(sp, nfa) || !rewrite.IsConstructorForm(sp, nfb) || !nfa.Equal(nfb) {
					p.Skipped++
					continue
				}
				// Every pair carries its own shrink instance so the shrinker
				// starts from the assignment that actually failed.
				inst := &rt.Instance{
					Axiom: ax.Label, LHS: encode(tl), RHS: encode(tr),
					Asn: make(map[string]*rt.Tree, len(asn)),
				}
				for v, t := range asn {
					inst.Asn[v] = encode(t)
				}
				p.Suite.Insts = append(p.Suite.Insts, inst)
				p.Suite.Pairs = append(p.Suite.Pairs, &rt.Pair{
					Axiom: ax.Label, A: encode(a), B: encode(b), Inst: len(p.Suite.Insts) - 1,
				})
				p.AxiomPairs++
				for _, v := range vars {
					if min, ok := g.Minimal(v.Sort); ok {
						p.Suite.Min[string(v.Sort)] = encode(min)
					}
				}
			}
		}
	}

	// Observation pairs: every ground observer probe against its engine
	// normal form (the CheckAgainstSpec net, baked offline).
	ops := sp.Observers(cfg.ObserveSorts...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Name < ops[j].Name })
	for _, op := range ops {
		for _, probe := range g.SampledApplications(op, min(cfg.N, 4), cfg.Depth) {
			if seen[probe.String()] {
				continue
			}
			seen[probe.String()] = true
			if len(p.Suite.Pairs) >= maxPairs {
				p.Skipped++
				continue
			}
			nf, err := norm(probe)
			if err != nil {
				return nil, fmt.Errorf("driverkit: normalizing %s: %w", probe, err)
			}
			if !rewrite.IsConstructorForm(sp, nf) {
				p.Skipped++
				continue
			}
			p.Suite.Pairs = append(p.Suite.Pairs, &rt.Pair{A: encode(probe), B: encode(nf), Inst: -1})
			p.ObsPairs++
		}
	}

	for i, pair := range p.Suite.Pairs {
		pair.ID = i
	}
	p.Files, err = emit(sp, p, cfg)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func checkPkgName(pkg string) error {
	if pkg == "" {
		return fmt.Errorf("driverkit: empty package name")
	}
	for i, r := range pkg {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || i > 0 && r >= '0' && r <= '9'
		if !ok {
			return fmt.Errorf("driverkit: %q is not a valid Go package name", pkg)
		}
	}
	return nil
}

// encode renders a term as the runtime's explicit syntax tree.
func encode(t *term.Term) *rt.Tree {
	switch t.Kind {
	case term.Atom:
		return rt.At(t.Sym, string(t.Sort))
	case term.Err:
		return rt.Er(string(t.Sort))
	case term.Var:
		return rt.Vr(t.Sym, string(t.Sort))
	default:
		args := make([]*rt.Tree, len(t.Args))
		for i, a := range t.Args {
			args[i] = encode(a)
		}
		return rt.Op(t.Sym, string(t.Sort), args...)
	}
}
