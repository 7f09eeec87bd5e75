package axtest

import (
	"fmt"
	"strings"

	"algspec/internal/gen"
	"algspec/internal/rewrite"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// DiffConfig tunes a differential engine run. The zero value is usable.
type DiffConfig struct {
	// Depth bounds the exhaustive part of the corpus (0 = 3); random
	// extension terms are drawn one level deeper.
	Depth int
	// Seed seeds the random part of the corpus (0 = DefaultSeed).
	Seed int64
	// Workers is the N in the "workers 1/N" axis (<= 0 = 4).
	Workers int
	// AllStrategies additionally runs outermost-strategy engines and
	// requires their normal forms to equal the innermost baseline's.
	// Callers enable it on certified specs. The engine's strict error
	// can still split the strategies (DESIGN §16); the corpus applies
	// extensions only to ground constructor terms, the scope in which
	// the mode passes on the library.
	AllStrategies bool
}

func (c DiffConfig) withDefaults() DiffConfig {
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// Step-count comparability classes. The rows of one class must agree on
// Steps; normal forms must agree across ALL classes.
const (
	classPlain = "plain"     // innermost: steps identical for either tier and any worker count
	classOuter = "outermost" // outermost order: different reduction sequence entirely
)

// EngineResult is one engine configuration's outcome over the corpus.
type EngineResult struct {
	// Name identifies the configuration, e.g. "interp/w1".
	Name string
	// Class is the step-comparability class (classPlain, ...).
	Class string
	// Steps is the merged reduction count over the whole corpus.
	Steps int
	// Stats is the full merged counter set.
	Stats rewrite.Stats
}

// DiffReport is the outcome of normalizing one corpus under every engine
// configuration.
type DiffReport struct {
	Spec string
	Seed int64
	// Corpus is the number of ground terms normalized per engine.
	Corpus  int
	Engines []EngineResult
	// Mismatches describes any disagreement: a normal form differing
	// from the baseline engine's, an error asymmetry, or a step-count
	// drift within a comparability class.
	Mismatches []string
}

// OK reports whether every engine agreed.
func (r *DiffReport) OK() bool { return len(r.Mismatches) == 0 }

// String renders the report with one line per engine.
func (r *DiffReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential engines of %s: %d term(s), %d engine(s), seed %d: ",
		r.Spec, r.Corpus, len(r.Engines), r.Seed)
	if r.OK() {
		b.WriteString("OK")
	} else {
		fmt.Fprintf(&b, "FAIL (%d mismatch(es))", len(r.Mismatches))
	}
	for _, e := range r.Engines {
		fmt.Fprintf(&b, "\n  %-18s steps=%-8d rule-fires=%d",
			e.Name, e.Steps, e.Stats.RuleFires)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "\n  mismatch: %s", m)
	}
	return b.String()
}

// CheckEngines builds one ground corpus for the spec and normalizes it
// under four engine configurations — compiled machine and MatchBind
// interpreter, each at NormalizeAll workers 1/N (six with
// DiffConfig.AllStrategies) — requiring identical normal forms
// everywhere and identical step counts within each comparability class.
// The corpus applies every non-constructor operation to exhaustive
// constructor instantiations up to Depth, plus random deeper ones.
func CheckEngines(sp *spec.Spec, cfg DiffConfig) *DiffReport {
	cfg = cfg.withDefaults()
	rep := &DiffReport{Spec: sp.Name, Seed: cfg.Seed}

	base := rewrite.New(sp)
	g := gen.New(sp, gen.Config{Seed: cfg.Seed, Intern: base.Interner()})
	corpus := buildCorpus(sp, g, cfg)
	rep.Corpus = len(corpus)

	type engine struct {
		name    string
		class   string
		opts    []rewrite.Option
		workers int
	}
	engines := []engine{
		// The optionless baseline resolves to the compiled tier (the
		// abstract rewrite machine); WithoutCompiledTier pins the
		// MatchBind interpreter, so these rows differentiate the machine
		// against the reference semantics directly — identical normal
		// forms AND identical step counts required.
		{"compiled/w1", classPlain, nil, 1},
		{fmt.Sprintf("compiled/w%d", cfg.Workers), classPlain, nil, cfg.Workers},
		{"interp/w1", classPlain, []rewrite.Option{rewrite.WithoutCompiledTier()}, 1},
		{fmt.Sprintf("interp/w%d", cfg.Workers), classPlain, []rewrite.Option{rewrite.WithoutCompiledTier()}, cfg.Workers},
	}
	if cfg.AllStrategies {
		// The strengthened certified mode: outermost rows join the
		// matrix, and the cross-class NF equality check below now spans
		// strategies, term by term over the constructor-argument corpus.
		engines = append(engines,
			engine{"outermost/w1", classOuter, []rewrite.Option{rewrite.WithStrategy(rewrite.Outermost)}, 1},
			engine{fmt.Sprintf("outermost/w%d", cfg.Workers), classOuter, []rewrite.Option{rewrite.WithStrategy(rewrite.Outermost)}, cfg.Workers},
		)
	}

	nfs := make([][]*term.Term, len(engines))
	errsPer := make([][]error, len(engines))
	for i, e := range engines {
		sys := base.Fork(e.opts...)
		nfs[i], errsPer[i] = sys.NormalizeAll(corpus, e.workers)
		rep.Engines = append(rep.Engines, EngineResult{
			Name:  e.name,
			Class: e.class,
			Steps: sys.Stats().Steps,
			Stats: sys.Stats(),
		})
	}

	// Normal forms and error slots must agree with the baseline engine
	// everywhere.
	const baseline = 0
	for i := 1; i < len(engines); i++ {
		for j := range corpus {
			be, ee := errAt(errsPer[baseline], j), errAt(errsPer[i], j)
			if (be == nil) != (ee == nil) {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
					"%s vs %s on %s: error %v vs %v",
					engines[baseline].name, engines[i].name, corpus[j], be, ee))
				continue
			}
			if be != nil {
				continue
			}
			if !nfs[baseline][j].Equal(nfs[i][j]) {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
					"%s vs %s on %s: %s vs %s",
					engines[baseline].name, engines[i].name, corpus[j], nfs[baseline][j], nfs[i][j]))
			}
		}
	}

	// Step counts must agree within each comparability class.
	first := map[string]int{} // class -> engine index of its first member
	for i, e := range engines {
		f, ok := first[e.class]
		if !ok {
			first[e.class] = i
			continue
		}
		if rep.Engines[i].Steps != rep.Engines[f].Steps {
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
				"step drift in class %s: %s took %d step(s), %s took %d",
				e.class, engines[f].name, rep.Engines[f].Steps, e.name, rep.Engines[i].Steps))
		}
	}
	return rep
}

// perOp caps the exhaustive instantiations the corpus keeps per
// extension operation; randomPerOp random deeper ones are added.
const (
	perOp       = 60
	randomPerOp = 20
)

// buildCorpus applies every non-native, non-constructor operation of the
// spec to exhaustive constructor instantiations (depth cfg.Depth, capped
// at perOp per operation) plus randomPerOp random deeper ones.
// The order is deterministic for a fixed seed.
func buildCorpus(sp *spec.Spec, g *gen.Generator, cfg DiffConfig) []*term.Term {
	var corpus []*term.Term
	for _, op := range sp.Extensions() {
		corpus = append(corpus, g.Applications(op, cfg.Depth, perOp)...)
		for k := 0; k < randomPerOp; k++ {
			args := make([]*term.Term, len(op.Domain))
			ok := true
			for i, ds := range op.Domain {
				a, err := g.Random(ds, cfg.Depth+1)
				if err != nil {
					ok = false
					break
				}
				args[i] = a
			}
			if ok {
				corpus = append(corpus, term.NewOp(op.Name, op.Range, args...))
			}
		}
	}
	return corpus
}
