package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"algspec/internal/completion"
)

// cmdConfluence runs the Knuth–Bendix completion pass over every loaded
// specification and reports each one's confluence certificate. Exit
// codes follow exit.go's severity order: a refuted spec exits 3 (the
// oracle code — an axiom set that provably cannot be oriented is a
// specification bug), budget exhaustion alone exits 1 (infrastructure:
// no claim either way), and a fully certified run exits 0.
func cmdConfluence(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("confluence", flag.ContinueOnError)
	fs.SetOutput(out)
	lib := fs.Bool("lib", false, "preload the embedded specification library")
	specName := fs.String("spec", "", "only this specification (default: all loaded)")
	jsonOut := fs.Bool("json", false, "emit certificates as JSON")
	trace := fs.Bool("trace", false, "print each certificate's orientation trace and precedence (text mode)")
	maxRules := fs.Int("max-rules", 0, "rule budget for completion (0 = 128)")
	rounds := fs.Int("rounds", 0, "closure-round budget (0 = 8)")
	fuel := fs.Int("fuel", 0, "per-round reduction budget (0 = 1<<18)")
	files, err := parseInterleaved(fs, args)
	if err != nil {
		return err
	}
	env, err := loadEnv(*lib, files)
	if err != nil {
		return err
	}
	names := env.Names()
	if *specName != "" {
		if _, err := lookupSpec(env, *specName); err != nil {
			return err
		}
		names = []string{*specName}
	}
	if len(names) == 0 {
		return exitf(exitUsage, "confluence: no specifications loaded (try -lib or name spec files)")
	}

	cfg := completion.Config{MaxRules: *maxRules, MaxRounds: *rounds, Fuel: *fuel}
	var certs []*completion.Certificate
	refuted, budget := 0, 0
	for _, name := range names {
		c := completion.Complete(env.MustGet(name), cfg)
		certs = append(certs, c)
		switch c.Verdict {
		case completion.Refuted:
			refuted++
		case completion.Budget:
			budget++
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(certs); err != nil {
			return err
		}
	} else {
		for _, c := range certs {
			fmt.Fprintln(out, c)
			if *trace && c.Verdict == completion.Certified {
				fmt.Fprintf(out, "  precedence: %v\n", c.Precedence)
				for _, o := range c.Trace {
					tag := ""
					if o.Flipped {
						tag = " (flipped)"
					}
					if o.Derived {
						tag += fmt.Sprintf(" (derived, round %d)", o.Round)
					}
					fmt.Fprintf(out, "  [%s] %s -> %s%s\n", o.Label, o.LHS, o.RHS, tag)
				}
			}
		}
		fmt.Fprintf(out, "%d certified, %d refuted, %d budget-exhausted of %d spec(s)\n",
			len(certs)-refuted-budget, refuted, budget, len(certs))
	}
	// A refutation outranks budget exhaustion, mirroring `adt test`'s
	// "oracle failure wins" policy.
	switch {
	case refuted > 0:
		return exitf(exitOracle, "%d specification(s) refuted", refuted)
	case budget > 0:
		return exitf(exitInfra, "%d specification(s) exhausted the completion budget", budget)
	}
	return nil
}
