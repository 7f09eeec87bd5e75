package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"algspec/internal/core"
	"algspec/internal/spec"
)

// Exit codes. Every subcommand exits 0 on success and 1 on plain
// errors; the testing fronts (adt test, adt conform, adt gen-driver
// -selftest) distinguish their outcomes so CI pipelines can react to
// each class without parsing output:
//
//	0  success
//	1  infrastructure error (I/O, engine fault, bad server answer)
//	2  usage error (unknown subcommand, missing required flag)
//	3  oracle failure (behavior disagrees with the specification)
//	4  mutation survivor (a mutant passed a suite that must kill it)
//
// When a run has both oracle failures and mutation survivors, the
// oracle failure wins: a real disagreement outranks a weak suite.
const (
	exitOK       = 0
	exitInfra    = 1
	exitUsage    = 2
	exitOracle   = 3
	exitSurvivor = 4
)

// exitError carries a specific exit code up through run()'s error
// return; plain errors exit with exitInfra.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// exitf builds an error that exits with the given code.
func exitf(code int, format string, a ...any) error {
	return &exitError{code: code, err: fmt.Errorf(format, a...)}
}

// parseFlags parses args into fs; every subcommand's flags go through
// it, and it owns the set's output. A flag the set rejects is a usage
// error, which run reports in one line on stderr; nothing goes to out.
// -h or -help prints the set's usage on out and returns flag.ErrHelp,
// which exits 0.
func parseFlags(fs *flag.FlagSet, args []string, out io.Writer) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, flag.ErrHelp):
		fs.SetOutput(out)
		fs.Usage()
		return err
	}
	return &exitError{code: exitUsage, err: err}
}

// lookupSpec finds the named specification; an unknown name is a usage
// error.
func lookupSpec(env *core.Env, name string) (*spec.Spec, error) {
	sp, ok := env.Get(name)
	if !ok {
		return nil, exitf(exitUsage, "unknown specification %q", name)
	}
	return sp, nil
}

// checkDepth rejects a ground-term depth below 1 as a usage error: such
// a depth enumerates no terms, so a checker would report success with
// nothing checked.
func checkDepth(cmd string, depth int) error {
	if depth < 1 {
		return exitf(exitUsage, "%s: -depth must be >= 1 (got %d)", cmd, depth)
	}
	return nil
}

// exitCode maps an error from a subcommand to the process exit code.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return exitOK
	}
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	return exitInfra
}
