// Package loadgen is the deterministic load-generation half of the
// serve test harness (DESIGN §11): a seeded workload generator that
// replays mixes of /v1/normalize, /v1/check, /v1/specs and /v1/conform
// requests drawn from the shipped spec library, with every normalize
// request's expected normal form computed offline (sequentially,
// against an independent environment) before the first byte goes on the
// wire — the specification is the oracle, in Gaudel & Le Gall's sense,
// and the server is the implementation under test. Conform requests
// drive a whole self-conformance session (DESIGN §14) per logical
// request, so the oracle endpoint gets exercised under the same chaos
// and reconciliation discipline as the rest of the API.
//
// The replay contract: the request sequence is a pure function of
// (seed, mix, request count). Two runs with the same seed issue
// byte-identical request streams; with one client worker the arrival
// order, the fault schedule (internal/faultinject counts hits
// deterministically) and the final reconciliation report are identical
// too.
package loadgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"algspec/internal/corpus"
	"algspec/internal/speclib"
)

// Kind is a request's endpoint.
type Kind int

const (
	KindNormalize Kind = iota // POST /v1/normalize
	KindCheck                 // POST /v1/check
	KindSpecs                 // GET /v1/specs
	KindConform               // POST /v1/conform (a full oracle session)
)

func (k Kind) String() string {
	switch k {
	case KindNormalize:
		return "normalize"
	case KindCheck:
		return "check"
	case KindSpecs:
		return "specs"
	case KindConform:
		return "conform"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Request is one logical request of the workload. WantNF is the
// offline-computed oracle for normalize requests. A conform request is
// one logical unit too, even though it spends several wire exchanges
// (open, observe rounds, close) driving a self-conformance session for
// Spec; its oracle is the verdict itself, which must be Pass.
type Request struct {
	ID     int
	Kind   Kind
	Spec   string
	Term   string
	WantNF string
	// Strategy, when non-empty, pins the evaluation order the server is
	// asked for on a normalize request ("innermost" or "outermost").
	// The oracle is strategy-blind: on the library battery both
	// strategies reach the same normal form, which is exactly what a
	// strategy-mixed run asserts end to end.
	Strategy string
}

// Mix is the workload composition as relative weights.
type Mix struct {
	Normalize int
	Check     int
	Specs     int
	Conform   int
}

// DefaultMix is the composition `adt load` uses when -mix is not given:
// normalization-heavy, like the service's intended traffic. Conform
// weighs zero by default — one conform request spends several wire
// exchanges, so its traffic share is an explicit choice (mix
// "conform=N").
var DefaultMix = Mix{Normalize: 8, Check: 1, Specs: 1}

// ParseMix parses "normalize=8,check=1,specs=1" (any subset; omitted
// kinds weigh zero; at least one weight must be positive).
func ParseMix(s string) (Mix, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultMix, nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: bad mix entry %q (want kind=weight)", part)
		}
		w, err := strconv.Atoi(v)
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: bad mix weight %q (want a non-negative integer)", v)
		}
		switch k {
		case "normalize":
			m.Normalize = w
		case "check":
			m.Check = w
		case "specs":
			m.Specs = w
		case "conform":
			m.Conform = w
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown mix kind %q (want normalize, check, specs or conform)", k)
		}
	}
	if m.Normalize+m.Check+m.Specs+m.Conform <= 0 {
		return Mix{}, fmt.Errorf("loadgen: mix %q has zero total weight", s)
	}
	return m, nil
}

// String renders the mix canonically (the report embeds it, and reports
// must be byte-stable).
func (m Mix) String() string {
	return fmt.Sprintf("normalize=%d,check=%d,specs=%d,conform=%d", m.Normalize, m.Check, m.Specs, m.Conform)
}

// checkSource is the fixed specification uploaded by every check
// request in the mix. It is complete and consistent, so the expected
// verdict — the oracle for /v1/check — is ok:true.
const checkSource = `spec LoadProbe
  uses Bool
  ops
    seed : -> LoadProbe
    turn : LoadProbe -> LoadProbe
    odd? : LoadProbe -> Bool
  vars p : LoadProbe
  axioms
    [o1] odd?(seed) = false
    [o2] odd?(turn(p)) = not(odd?(p))
end
`

// Generator produces the deterministic request sequence for one seed.
type Generator struct {
	rng    *rand.Rand
	mix    Mix
	specs  []string            // battery specs, sorted
	oracle map[string][]string // spec -> normal form per battery index
}

// NewGenerator seeds a generator and computes the normalize oracles
// offline: every battery term of every shipped spec is normalized
// sequentially in a fresh environment, before any load is generated.
func NewGenerator(seed int64, mix Mix) (*Generator, error) {
	g := &Generator{
		rng:    rand.New(rand.NewSource(seed)),
		mix:    mix,
		specs:  corpus.BatterySpecs(),
		oracle: make(map[string][]string),
	}
	env := speclib.BaseEnv()
	for _, spec := range g.specs {
		terms := corpus.Battery(spec)
		nfs := make([]string, len(terms))
		for i, src := range terms {
			nf, err := env.Eval(spec, src)
			if err != nil {
				return nil, fmt.Errorf("loadgen: oracle for %s %q: %w", spec, src, err)
			}
			nfs[i] = nf.String()
		}
		g.oracle[spec] = nfs
	}
	return g, nil
}

// ParseStrategies parses a comma-separated strategy rotation, e.g.
// "innermost,outermost". Every entry must name a known evaluation
// strategy; an empty string means "no rotation" (nil).
func ParseStrategies(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		p := strings.TrimSpace(part)
		switch p {
		case "innermost", "outermost":
			out = append(out, p)
		default:
			return nil, fmt.Errorf("loadgen: unknown strategy %q (want innermost or outermost)", p)
		}
	}
	return out, nil
}

// Sequence materializes the first n requests of the seeded stream. The
// whole sequence is drawn up front so concurrency in the client can
// never perturb what is asked, only when.
func (g *Generator) Sequence(n int) []Request {
	total := g.mix.Normalize + g.mix.Check + g.mix.Specs + g.mix.Conform
	out := make([]Request, n)
	for i := range out {
		req := Request{ID: i}
		switch w := g.rng.Intn(total); {
		case w < g.mix.Normalize:
			req.Kind = KindNormalize
			req.Spec = g.specs[g.rng.Intn(len(g.specs))]
			ti := g.rng.Intn(len(corpus.Battery(req.Spec)))
			req.Term = corpus.Battery(req.Spec)[ti]
			req.WantNF = g.oracle[req.Spec][ti]
		case w < g.mix.Normalize+g.mix.Check:
			req.Kind = KindCheck
		case w < g.mix.Normalize+g.mix.Check+g.mix.Specs:
			req.Kind = KindSpecs
		default:
			req.Kind = KindConform
			req.Spec = g.specs[g.rng.Intn(len(g.specs))]
		}
		out[i] = req
	}
	return out
}

// SortedKeys returns a map's keys sorted; the report printer uses it to
// keep every section byte-stable.
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
