// Command adt is the specification toolchain: it parses, checks,
// evaluates and verifies algebraic specifications of abstract data types.
//
// Usage:
//
//	adt info [-lib] [file.spec ...]
//	adt check [-lib] [-depth N] [file.spec ...]
//	adt eval -spec NAME [-lib] [-workers N] [file.spec ...] TERM ...
//	adt trace -spec NAME [-lib] [file.spec ...] TERM ...
//	adt verify -rep stack|list [-depth N]
//	adt serve [-addr HOST:PORT] [-workers N] [-fuel N] [-cache N] [-timeout D] [file.spec ...]
//	adt load [-seed N] [-duration D] [-rps N] [-mix M] [-faults F] [-slo S] [-runpack DIR]
//	adt verify-run DIR
//	adt regress DIR
//	adt gen-driver -spec NAME [-o DIR] [-pkg NAME] [-observe SORTS] [file.spec ...]
//	adt conform -spec NAME [-url URL] [-impl self|ref|mutants] [file.spec ...]
//
// Exit codes: 0 success, 1 infrastructure error, 2 usage error,
// 3 oracle failure (behavior disagrees with the specification),
// 4 mutation survivor (see cmd/adt/exit.go).
//
// The -lib flag preloads the embedded specification library (the paper's
// Queue, Symboltable, Stack, Array, Knowlist and friends); files are
// loaded afterwards in order, so user specs may use library ones.
//
// Examples:
//
//	adt eval -lib -spec Queue "front(add(add(new, 'x), 'y))"
//	adt check -lib
//	adt verify -rep stack
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"algspec/internal/complete"
	"algspec/internal/consist"
	"algspec/internal/core"
	"algspec/internal/homo"
	"algspec/internal/reps"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run dispatches a subcommand, writing results to out and problems to
// errOut; it returns the process exit code.
func run(args []string, stdin io.Reader, out, errOut io.Writer) int {
	if len(args) < 1 {
		usage(errOut)
		return 2
	}
	var err error
	switch args[0] {
	case "info":
		err = cmdInfo(args[1:], out)
	case "check":
		err = cmdCheck(args[1:], out)
	case "eval":
		err = cmdEval(args[1:], out, false)
	case "trace":
		err = cmdEval(args[1:], out, true)
	case "verify":
		err = cmdVerify(args[1:], out)
	case "fmt":
		err = cmdFmt(args[1:], out)
	case "prove":
		err = cmdProve(args[1:], out)
	case "cover":
		err = cmdCover(args[1:], out)
	case "test":
		err = cmdTest(args[1:], out)
	case "repl":
		err = cmdRepl(args[1:], stdin, out)
	case "serve":
		err = cmdServe(args[1:], out)
	case "load":
		err = cmdLoad(args[1:], out)
	case "verify-run":
		err = cmdVerifyRun(args[1:], out)
	case "regress":
		err = cmdRegress(args[1:], out)
	case "gen-driver":
		err = cmdGenDriver(args[1:], out)
	case "conform":
		err = cmdConform(args[1:], out)
	case "confluence":
		err = cmdConfluence(args[1:], out)
	case "help", "-h", "--help":
		usage(out)
		return 0
	default:
		fmt.Fprintf(errOut, "adt: unknown subcommand %q\n", args[0])
		usage(errOut)
		return 2
	}
	code := exitCode(err)
	if code != exitOK {
		fmt.Fprintf(errOut, "adt: %v\n", err)
	}
	return code
}

func usage(w io.Writer) {
	fmt.Fprint(w, `adt — algebraic specification toolchain

subcommands:
  info    [-lib] [file ...]          list loaded specifications
  check   [-lib] [-depth N] [file ...]
                                     sufficient-completeness and
                                     consistency of every loaded spec
  eval    -spec NAME [-lib] [-workers N] [file ...] TERM ...
                                     normalize ground terms (several terms
                                     are evaluated as one parallel batch)
  trace   -spec NAME [-lib] [file ...] TERM ...
                                     normalize, printing each rewrite
  verify  -rep stack|list [-depth N] verify a Symboltable representation
  fmt     [-w] file ...              format specifications canonically
  prove   -spec NAME [-vars "x:S,.."] [-lemma GOAL]... GOAL
                                     prove an equation by structural
                                     induction (GOAL = "on VAR : L = R")
  repl    [-spec NAME] [-lib] [file ...]
                                     interactive term evaluation
  cover   [-lib] [-spec NAME] [-depth N] [file ...]
                                     axiom coverage under the generated
                                     workload (reports dead axioms)
  confluence [-lib] [-spec NAME] [-json] [-trace]
          [-max-rules N] [-rounds N] [-fuel N] [file ...]
                                     Knuth–Bendix completion: orient the
                                     axioms under a derived path order and
                                     close under critical pairs; exit 0 all
                                     certified, 3 refuted, 1 budget
  test    [-spec NAME] [-n N] [-depth N] [-seed N] [-workers N]
          [-mutate] [-diff=false] [file ...]
                                     property-test specs: axioms as random
                                     oracles (with shrinking and seed
                                     replay), differential engine runs,
                                     and optional mutation smoke
  serve   [-addr HOST:PORT] [-workers N] [-fuel N] [-cache N]
          [-timeout D] [file ...]    HTTP/JSON evaluation service over the
                                     library plus the given spec files
                                     (see README "Serving specs")
  load    [-seed N] [-duration D] [-rps N] [-mix M] [-faults F]
          [-slo S] [-workers N]      seeded, oracle-checked load run against
          [-runpack DIR]             an in-process serve instance, with
                                     optional fault injection; -runpack emits
                                     a verifiable run artifact (see README
                                     "Load testing and fault injection" and
                                     "Verifiable runs")
  verify-run DIR                     re-check a runpack: every digest, books
                                     balance, metrics monotone, golden normal
                                     forms byte-for-byte through the current
                                     engine
  regress DIR                        deterministically replay a load runpack
                                     against a fresh in-process server and
                                     diff outcomes, normal forms and step
                                     counts against the record
  gen-driver -spec NAME [-o DIR] [-pkg NAME] [-n N] [-depth N]
          [-seed N] [-observe SORTS] [-selftest] [file ...]
                                     emit a self-contained Go conformance
                                     driver package for the spec (see README
                                     "Conformance as a service")
  conform -spec NAME [-url URL] [-impl self|ref|mutants]
          [-observe SORTS] [file ...]
                                     drive an implementation through a
                                     /v1/conform oracle session (in-process
                                     server when -url is empty)

exit codes: 0 success, 1 infrastructure, 2 usage,
            3 oracle failure, 4 mutation survivor
`)
}

// loadEnv builds an environment from the -lib flag and positional files.
func loadEnv(lib bool, files []string) (*core.Env, error) {
	env := core.NewEnv()
	if lib {
		env.MustLoad(speclib.Sources...)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if _, err := env.Load(string(src)); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return env, nil
}

func cmdInfo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	lib := fs.Bool("lib", false, "preload the embedded specification library")
	if err := parseFlags(fs, args, out); err != nil {
		return err
	}
	env, err := loadEnv(*lib, fs.Args())
	if err != nil {
		return err
	}
	for _, name := range env.Names() {
		sp := env.MustGet(name)
		fmt.Fprintf(out, "spec %s: %d own operation(s), %d own axiom(s)", sp.Name, len(sp.OwnOps), len(sp.Own))
		if len(sp.Uses) > 0 {
			fmt.Fprintf(out, ", uses %s", joinComma(sp.Uses))
		}
		fmt.Fprintln(out)
		for _, op := range sp.OwnOperations() {
			kind := "extension  "
			if sp.IsConstructor(op.Name) {
				kind = "constructor"
			}
			if op.Native {
				kind = "native     "
			}
			fmt.Fprintf(out, "  %s %s\n", kind, op)
		}
	}
	return nil
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

func cmdCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	lib := fs.Bool("lib", false, "preload the embedded specification library")
	depth := fs.Int("depth", 4, "ground-term depth for the dynamic checks")
	dynamic := fs.Bool("dynamic", true, "also run the dynamic (ground-term) checks")
	workers := fs.Int("workers", 0, "worker goroutines for the dynamic checks (0 = GOMAXPROCS)")
	files, err := parseInterleaved(fs, args, out)
	if err != nil {
		return err
	}
	if err := checkDepth("check", *depth); err != nil {
		return err
	}
	env, err := loadEnv(*lib, files)
	if err != nil {
		return err
	}
	bad := 0
	for _, name := range env.Names() {
		sp := env.MustGet(name)
		cr := complete.Check(sp)
		fmt.Fprint(out, cr)
		if !cr.OK() {
			bad++
		}
		kr := consist.Check(sp)
		fmt.Fprint(out, kr)
		if !kr.OK() {
			bad++
		}
		if *dynamic {
			// The env caches one compiled system per spec; the checkers
			// fork it per worker instead of recompiling the axioms.
			sys, err := env.System(name)
			if err != nil {
				return err
			}
			dr := complete.CheckDynamic(sp, complete.DynamicConfig{Depth: *depth, System: sys, Workers: *workers})
			fmt.Fprint(out, dr)
			if !dr.OK() {
				bad++
			}
			gr := consist.CheckGround(sp, consist.GroundConfig{Depth: *depth, System: sys, Workers: *workers})
			fmt.Fprint(out, gr)
			if !gr.OK() {
				bad++
			}
		}
		fmt.Fprintln(out)
	}
	if bad > 0 {
		return fmt.Errorf("%d check(s) failed", bad)
	}
	return nil
}

func cmdEval(args []string, out io.Writer, traced bool) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	lib := fs.Bool("lib", true, "preload the embedded specification library")
	specName := fs.String("spec", "", "specification to evaluate against (required)")
	stats := fs.Bool("stats", false, "print engine work counters (steps, rule fires, native calls) after the normal form")
	engine := fs.String("engine", "compiled", "evaluation tier: compiled (abstract rewrite machine, default) or interp (reference interpreter)")
	workers := fs.Int("workers", 0, "worker goroutines when several terms are given (0 = GOMAXPROCS)")
	rest, err := parseInterleaved(fs, args, out)
	if err != nil {
		return err
	}
	if *specName == "" || len(rest) == 0 {
		return exitf(exitUsage, "eval requires -spec NAME and at least one TERM argument")
	}
	engineOpts, err := engineOptions(*engine)
	if err != nil {
		return err
	}
	// Leading positional arguments that name existing files are loaded as
	// specifications; everything after the first non-file is a term, so
	// several terms may be evaluated in one invocation.
	nfiles := 0
	for nfiles < len(rest)-1 {
		if _, err := os.Stat(rest[nfiles]); err != nil {
			break
		}
		nfiles++
	}
	files, termSrcs := rest[:nfiles], rest[nfiles:]
	env, err := loadEnv(*lib, files)
	if err != nil {
		return err
	}
	if _, err := lookupSpec(env, *specName); err != nil {
		return err
	}
	if traced {
		for _, termSrc := range termSrcs {
			if len(termSrcs) > 1 {
				fmt.Fprintf(out, "== %s\n", termSrc)
			}
			step := 0
			nf, err := env.Trace(*specName, termSrc, func(ts rewrite.TraceStep) {
				step++
				fmt.Fprintf(out, "%3d  %-14s %s\n     -> %s\n", step, "["+ts.Rule.Label+"]", ts.Before, ts.After)
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "normal form: %s\n", nf)
		}
		return nil
	}
	sys, err := env.System(*specName)
	if err != nil {
		return err
	}
	// Fork so the env's cached system keeps clean counters; the fork
	// shares the compiled program and interner.
	sys = sys.Fork(engineOpts...)
	terms := make([]*term.Term, len(termSrcs))
	for i, src := range termSrcs {
		if terms[i], err = env.ParseTerm(*specName, src); err != nil {
			return err
		}
	}
	nfs, errs := sys.NormalizeAll(terms, *workers)
	for i := range terms {
		if errs != nil && errs[i] != nil {
			return fmt.Errorf("%s: %w", termSrcs[i], errs[i])
		}
		fmt.Fprintln(out, nfs[i])
	}
	if *stats {
		d := sys.Stats()
		fmt.Fprintf(out, "stats: tier=%s steps=%d rule-fires=%d native-calls=%d interned=%d\n",
			sys.Tier(), d.Steps, d.RuleFires, d.NativeCalls, sys.Interner().Size())
	}
	return nil
}

// engineOptions maps the -engine flag to rewrite options: "compiled"
// is the default tier selection (the abstract rewrite machine, with
// its interpreter fallback for configurations the machine does not
// serve), "interp" pins the reference interpreter. Anything else is a
// usage error.
func engineOptions(engine string) ([]rewrite.Option, error) {
	switch engine {
	case "compiled":
		return nil, nil
	case "interp":
		return []rewrite.Option{rewrite.WithoutCompiledTier()}, nil
	default:
		return nil, exitf(exitUsage, "unknown -engine %q (want compiled or interp)", engine)
	}
}

func cmdVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	repName := fs.String("rep", "stack", "representation to verify: stack (paper's stack of arrays) or list (flat list)")
	depth := fs.Int("depth", 4, "concrete ground-term depth")
	assume := fs.Bool("assume", true, "apply the paper's Assumption 1 (stack representation only)")
	pos, err := parseInterleaved(fs, args, out)
	if err != nil {
		return err
	}
	if len(pos) > 0 {
		return exitf(exitUsage, "verify takes no positional arguments (got %q)", pos[0])
	}
	if err := checkDepth("verify", *depth); err != nil {
		return err
	}

	env := speclib.BaseEnv()
	var v *homo.Verifier
	switch *repName {
	case "stack":
		v, err = reps.SymtabAsStack(env, *assume)
	case "list":
		v, err = reps.SymtabAsList(env)
	default:
		return exitf(exitUsage, "unknown representation %q (want stack or list)", *repName)
	}
	if err != nil {
		return err
	}
	rep, err := v.Verify(homo.Config{Depth: *depth})
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep)
	if !rep.OK() {
		return fmt.Errorf("verification failed")
	}
	return nil
}
