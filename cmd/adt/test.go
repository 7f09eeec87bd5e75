package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"algspec/internal/axtest"
	"algspec/internal/completion"
	"algspec/internal/core"
)

// parseInterleaved parses flags that may come before or after positional
// arguments ("adt test specs/pqueue.spec -mutate"), which the standard
// flag package alone does not allow: it stops at the first positional.
// Positionals are accumulated in order across the interleaved runs.
func parseInterleaved(fs *flag.FlagSet, args []string, out io.Writer) ([]string, error) {
	var pos []string
	for {
		if err := parseFlags(fs, args, out); err != nil {
			return nil, err
		}
		args = fs.Args()
		if len(args) == 0 {
			return pos, nil
		}
		i := 0
		for i < len(args) && !strings.HasPrefix(args[i], "-") {
			pos = append(pos, args[i])
			i++
		}
		if i == 0 {
			// A bare "-" operand; keep everything as positionals to
			// guarantee progress.
			return append(pos, args...), nil
		}
		args = args[i:]
	}
}

func cmdTest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	lib := fs.Bool("lib", true, "preload the embedded specification library")
	specName := fs.String("spec", "", "test only the named specification")
	n := fs.Int("n", 48, "random instantiations per axiom (plus the guaranteed minimal one)")
	depth := fs.Int("depth", 4, "depth bound for randomly drawn ground terms")
	seed := fs.Int64("seed", 0, "generator seed; 0 picks one and prints it, so any failure is replayable")
	workers := fs.Int("workers", 0, "worker goroutines for batch normalization (0 = GOMAXPROCS)")
	mutate := fs.Bool("mutate", false, "mutation smoke mode: perturb each axiom RHS and require the oracle to notice")
	engine := fs.String("engine", "compiled", "evaluation tier for the axiom oracles: compiled or interp")
	diff := fs.Bool("diff", true, "differential mode: normalize a corpus under all engine configurations")
	files, err := parseInterleaved(fs, args, out)
	if err != nil {
		return err
	}
	if err := checkDepth("test", *depth); err != nil {
		return err
	}

	engineOpts, err := engineOptions(*engine)
	if err != nil {
		return err
	}

	env, err := loadEnv(*lib, nil)
	if err != nil {
		return err
	}
	preloaded := map[string]bool{}
	for _, name := range env.Names() {
		preloaded[name] = true
	}
	if err := loadInto(env, files); err != nil {
		return err
	}

	// Select the suites: -spec NAME wins; otherwise the specs the files
	// introduced; otherwise every loaded spec that states axioms.
	var names []string
	switch {
	case *specName != "":
		if _, err := lookupSpec(env, *specName); err != nil {
			return err
		}
		names = []string{*specName}
	case len(files) > 0:
		for _, name := range env.Names() {
			if !preloaded[name] {
				names = append(names, name)
			}
		}
	default:
		for _, name := range env.Names() {
			if sp, ok := env.Get(name); ok && len(sp.Own) > 0 {
				names = append(names, name)
			}
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("test: no specifications to test")
	}

	effSeed := *seed
	if effSeed == 0 {
		effSeed = time.Now().UnixNano()&0x7fff_ffff | 1
	}
	fmt.Fprintf(out, "seed %d (replay any failure with -seed %d)\n", effSeed, effSeed)

	oracleBad, survivorBad := 0, 0
	for _, name := range names {
		sp := env.MustGet(name)
		sys, err := env.System(name)
		if err != nil {
			return err
		}
		// The tier choice rides the oracle system; the differential mode
		// below always runs both tiers regardless.
		sys = sys.Fork(engineOpts...)
		cfg := axtest.Config{
			N:       *n,
			Depth:   *depth,
			Seed:    effSeed,
			Workers: *workers,
			System:  sys,
		}
		rep := axtest.CheckAxioms(sp, cfg)
		fmt.Fprintln(out, rep)
		if !rep.OK() {
			oracleBad++
		}
		if *diff {
			drep := axtest.CheckEngines(sp, axtest.DiffConfig{
				Depth:   *depth - 1,
				Seed:    effSeed,
				Workers: *workers,
				// Certified specs get the strengthened mode: outermost
				// engines join the matrix and must reach the same normal
				// forms. Error strictness can still split the strategies
				// on some terms; the corpus applies extensions only to
				// constructor terms, where the mode passes on the library.
				AllStrategies: completion.Complete(sp, completion.Config{}).CertifiesAxioms(),
			})
			fmt.Fprintln(out, drep)
			if !drep.OK() {
				oracleBad++
			}
		}
		if *mutate {
			// The mutation driver compiles its own engines from perturbed
			// spec copies, so the env's cached system is left out of cfg.
			mcfg := cfg
			mcfg.System = nil
			mrep := axtest.CheckMutations(sp, mcfg)
			fmt.Fprintln(out, mrep)
			if !mrep.OK() {
				survivorBad++
			}
		}
	}
	// Oracle failures outrank mutation survivors (see exit.go): a real
	// disagreement is worse news than a suite too weak to kill mutants.
	switch {
	case oracleBad > 0:
		return exitf(exitOracle, "%d test suite(s) failed", oracleBad+survivorBad)
	case survivorBad > 0:
		return exitf(exitSurvivor, "%d mutation suite(s) left survivors", survivorBad)
	}
	return nil
}

// loadInto loads spec files into an existing environment.
func loadInto(env *core.Env, files []string) error {
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if _, err := env.Load(string(src)); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	return nil
}
