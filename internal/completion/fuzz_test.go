package completion_test

import (
	"encoding/json"
	"testing"

	"algspec/internal/completion"
	"algspec/internal/core"
	"algspec/internal/speclib"
)

// FuzzCompletion: for any source text, parse -> complete never panics,
// always returns a verdict, and the verdict is deterministic under
// repeated runs. Tight budgets keep pathological inputs from dominating
// the fuzzing loop; determinism must hold regardless of budget.
func FuzzCompletion(f *testing.F) {
	f.Add(speclib.Bool)
	f.Add(speclib.Queue)
	f.Add(speclib.BoundedQueue)
	f.Add(commutativeSrc)
	f.Add(chainSrc)
	f.Add(idemSrc)
	f.Add(permutativeSrc)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		env := core.NewEnv()
		env.MustLoad(speclib.Bool, speclib.Nat)
		sps, err := env.Load(src)
		if err != nil {
			return
		}
		cfg := completion.Config{MaxRules: 32, MaxRounds: 3, Fuel: 1 << 12}
		for _, sp := range sps {
			a := completion.Complete(sp, cfg)
			switch a.Verdict {
			case completion.Certified, completion.Refuted, completion.Budget:
			default:
				t.Fatalf("%s: unknown verdict %q", sp.Name, a.Verdict)
			}
			if a.Verdict != completion.Certified && a.Offender == nil {
				t.Fatalf("%s: verdict %s without an offender", sp.Name, a.Verdict)
			}
			b := completion.Complete(sp, cfg)
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if string(ja) != string(jb) {
				t.Fatalf("%s: nondeterministic certificate:\n%s\n%s", sp.Name, ja, jb)
			}
		}
	})
}
