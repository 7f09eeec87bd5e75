package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"algspec/internal/driverkit"
	"algspec/internal/driverkit/rt"
	"algspec/internal/sig"
)

// cmdGenDriver emits a self-contained conformance driver package for a
// spec (DESIGN §14): a signature-derived interface, a dispatch adapter,
// the embedded runtime and a baked axiom-oracle test suite. The output
// compiles in any module with no dependency on this one.
func cmdGenDriver(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen-driver", flag.ContinueOnError)
	lib := fs.Bool("lib", true, "preload the embedded specification library")
	specName := fs.String("spec", "", "specification to derive the driver from (required)")
	outDir := fs.String("o", "", "output directory (default ./PKG)")
	pkg := fs.String("pkg", "", "emitted package name (default: lowercased spec + \"driver\")")
	n := fs.Int("n", 0, "random instantiations per axiom on top of the minimal one (0 = 4)")
	depth := fs.Int("depth", 0, "depth bound for randomly drawn ground terms (0 = 3)")
	seed := fs.Int64("seed", 0, "generation seed (0 = fixed default, reproducible)")
	observe := fs.String("observe", "", "comma-separated extra observable sorts (e.g. Nat)")
	selftest := fs.Bool("selftest", false, "run the suite against the engine itself instead of writing files")
	force := fs.Bool("force", false, "overwrite an existing impl.go (normally kept: it is the user's file)")
	files, err := parseInterleaved(fs, args, out)
	if err != nil {
		return err
	}
	if *specName == "" {
		return exitf(exitUsage, "gen-driver requires -spec NAME")
	}
	env, err := loadEnv(*lib, files)
	if err != nil {
		return err
	}
	sp, err := lookupSpec(env, *specName)
	if err != nil {
		return err
	}
	cfg := driverkit.Config{Pkg: *pkg, N: *n, Depth: *depth, Seed: *seed, ObserveSorts: parseSorts(*observe)}
	p, err := driverkit.Build(env, sp, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "gen-driver %s: %d pair(s) baked (%d axiom, %d observation; %d skipped)\n",
		sp.Name, len(p.Suite.Pairs), p.AxiomPairs, p.ObsPairs, p.Skipped)

	if *selftest {
		impl, err := driverkit.EngineImpl(env, sp)
		if err != nil {
			return err
		}
		res, err := rt.Run(p.Suite, impl)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
		if !res.Pass {
			return exitf(exitOracle, "gen-driver selftest: engine fails the %s suite", sp.Name)
		}
		return nil
	}

	dir := *outDir
	if dir == "" {
		dir = p.Pkg
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(p.Files))
	for name := range p.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		if name == "impl.go" && !*force {
			if _, err := os.Stat(path); err == nil {
				fmt.Fprintf(out, "  kept    %s (exists; -force overwrites)\n", path)
				continue
			}
		}
		if err := os.WriteFile(path, []byte(p.Files[name]), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote   %s\n", path)
	}
	fmt.Fprintf(out, "package %s ready: wire NewImpl in %s and run `go test`\n", p.Pkg, filepath.Join(dir, "impl.go"))
	return nil
}

// parseSorts splits a comma-separated -observe list.
func parseSorts(s string) []sig.Sort {
	var out []sig.Sort
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, sig.Sort(part))
		}
	}
	return out
}
