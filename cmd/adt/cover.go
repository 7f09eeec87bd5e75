package main

import (
	"flag"
	"fmt"
	"io"

	"algspec/internal/cover"
)

// cmdCover measures axiom coverage of loaded specifications under the
// generated workload, reporting any axiom that never fires (shadowed or
// dead relations).
func cmdCover(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cover", flag.ContinueOnError)
	lib := fs.Bool("lib", false, "preload the embedded specification library")
	specName := fs.String("spec", "", "restrict to one specification (default: all loaded)")
	depth := fs.Int("depth", 4, "ground-term depth of the generated workload")
	maxPerOp := fs.Int("max", 4000, "instance cap per operation")
	if err := parseFlags(fs, args, out); err != nil {
		return err
	}
	if err := checkDepth("cover", *depth); err != nil {
		return err
	}
	env, err := loadEnv(*lib, fs.Args())
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
	uncovered := 0
	for _, name := range names {
		sp := env.MustGet(name)
		if len(sp.Own) == 0 {
			continue
		}
		r := cover.MeasureGenerated(sp, *depth, *maxPerOp)
		fmt.Fprint(out, r)
		if !r.Covered() {
			uncovered++
		}
	}
	if uncovered > 0 {
		return fmt.Errorf("%d specification(s) have axioms that never fire", uncovered)
	}
	return nil
}
