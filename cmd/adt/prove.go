package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"algspec/internal/induct"
	"algspec/internal/sig"
)

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// cmdProve proves an equation over a specification by structural
// induction, optionally after proving a chain of lemmas.
//
//	adt prove -spec List -vars "l:List, e:Elem" \
//	    -lemma "on l : reverseL(appendL(l, cons(e, nil))) = cons(e, reverseL(l))" \
//	    "on l : reverseL(reverseL(l)) = l"
func cmdProve(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prove", flag.ContinueOnError)
	lib := fs.Bool("lib", true, "preload the embedded specification library")
	specName := fs.String("spec", "", "specification to prove over (required)")
	varsFlag := fs.String("vars", "", "variable declarations, e.g. \"l:List, e:Elem\"")
	var lemmas multiFlag
	fs.Var(&lemmas, "lemma", "lemma to prove first, as \"on VAR : LHS = RHS\" (repeatable)")
	if err := parseFlags(fs, args, out); err != nil {
		return err
	}
	if *specName == "" || fs.NArg() != 1 {
		return exitf(exitUsage, "prove requires -spec NAME and one \"on VAR : LHS = RHS\" goal")
	}
	env, err := loadEnv(*lib, nil)
	if err != nil {
		return err
	}
	sp, err := lookupSpec(env, *specName)
	if err != nil {
		return err
	}
	vars, err := parseVarDecls(*varsFlag)
	if err != nil {
		return err
	}
	prover := induct.New(sp)
	for _, l := range lemmas {
		if err := proveOne(prover, l, vars, out, "lemma"); err != nil {
			return err
		}
	}
	return proveOne(prover, fs.Arg(0), vars, out, "goal")
}

func proveOne(prover *induct.Prover, src string, vars map[string]sig.Sort, out io.Writer, kind string) error {
	onVar, lhs, rhs, err := parseGoal(src)
	if err != nil {
		return err
	}
	eq, err := prover.ParseEquation(lhs, rhs, vars)
	if err != nil {
		return err
	}
	proof, err := prover.Prove(eq, onVar)
	if err != nil {
		return err
	}
	fmt.Fprint(out, proof)
	if !proof.Proved() {
		return fmt.Errorf("%s not proved: %s", kind, eq)
	}
	return nil
}

// parseGoal splits "on VAR : LHS = RHS".
func parseGoal(s string) (onVar, lhs, rhs string, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "on ") {
		return "", "", "", fmt.Errorf("goal must start with \"on VAR :\", got %q", s)
	}
	rest := strings.TrimPrefix(s, "on ")
	colon := strings.Index(rest, ":")
	if colon < 0 {
		return "", "", "", fmt.Errorf("goal missing ':' after the induction variable: %q", s)
	}
	onVar = strings.TrimSpace(rest[:colon])
	eqn := rest[colon+1:]
	parts := strings.SplitN(eqn, "=", 2)
	if len(parts) != 2 {
		return "", "", "", fmt.Errorf("goal missing '=': %q", s)
	}
	return onVar, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), nil
}

// parseVarDecls parses "l:List, e:Elem".
func parseVarDecls(s string) (map[string]sig.Sort, error) {
	out := map[string]sig.Sort{}
	s = strings.TrimSpace(s)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad variable declaration %q (want name:Sort)", part)
		}
		name := strings.TrimSpace(kv[0])
		sort := strings.TrimSpace(kv[1])
		if name == "" || sort == "" {
			return nil, fmt.Errorf("bad variable declaration %q (want name:Sort)", part)
		}
		out[name] = sig.Sort(sort)
	}
	return out, nil
}
