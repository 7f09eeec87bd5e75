package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"

	"algspec/internal/conform"
	"algspec/internal/refimpl"
	"algspec/internal/serve"
)

// cmdConform drives an implementation through a /v1/conform oracle
// session (DESIGN §14): the server plans ground probes from the spec's
// axioms, the client evaluates them, the server judges and shrinks any
// disagreement. With no -url an in-process serve instance is booted
// over the loaded specs, so `adt conform -spec Counter -impl ref
// specs/counter.spec` is a complete local conformance run.
func cmdConform(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("conform", flag.ContinueOnError)
	lib := fs.Bool("lib", true, "preload the embedded specification library")
	specName := fs.String("spec", "", "specification to conform against (required)")
	url := fs.String("url", "", "conformance server base URL (empty = boot an in-process server over the loaded specs)")
	implName := fs.String("impl", "self", "implementation to drive: self (the engine), ref (bundled reference), mutants (every single-operation mutant; all must be killed)")
	version := fs.String("version", "", "pin a registry spec version (sha256:..., empty = server head)")
	n := fs.Int("n", 0, "random instantiations per axiom (0 = server default)")
	depth := fs.Int("depth", 0, "depth bound for random instances (0 = server default)")
	seed := fs.Int64("seed", 0, "planning seed (0 = server's fixed default)")
	observe := fs.String("observe", "auto", "comma-separated extra observable sorts; auto = Nat when the spec has it and the implementation is ref or mutants")
	files, err := parseInterleaved(fs, args, out)
	if err != nil {
		return err
	}
	if *specName == "" {
		return exitf(exitUsage, "conform requires -spec NAME")
	}
	env, err := loadEnv(*lib, files)
	if err != nil {
		return err
	}
	sp, err := lookupSpec(env, *specName)
	if err != nil {
		return err
	}

	var sorts []string
	if *observe == "auto" {
		if *implName != "self" && sp.Sig.HasSort("Nat") {
			sorts = []string{"Nat"}
		}
	} else {
		for _, so := range parseSorts(*observe) {
			sorts = append(sorts, string(so))
		}
	}

	base := *url
	if base == "" {
		extras := make([]string, len(files))
		for i, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			extras[i] = string(src)
		}
		srv, err := serve.New(serve.Config{}, extras...)
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Fprintf(out, "adt conform: in-process server at %s\n", base)
	}
	post := httpPoster(base)
	open := &conform.Request{
		Spec: sp.Name, Version: *version, ObserveSorts: sorts,
		N: *n, Depth: *depth, Seed: *seed,
	}

	switch *implName {
	case "self":
		eval, err := conform.NewEngineClient(env, sp.Name)
		if err != nil {
			return err
		}
		return conformVerdict(out, sp.Name, "engine", post, open, eval)
	case "ref":
		build, ok := refimpl.Builders()[sp.Name]
		if !ok {
			return exitf(exitUsage, "no bundled reference implementation for %q (have Counter, Graph, PQueue)", sp.Name)
		}
		return conformVerdict(out, sp.Name, "reference", post, open, conform.NewModelClient(sp, build(sp)))
	case "mutants":
		if _, ok := refimpl.Builders()[sp.Name]; !ok {
			return exitf(exitUsage, "no bundled reference implementation for %q (have Counter, Graph, PQueue)", sp.Name)
		}
		survivors := 0
		for _, m := range refimpl.Mutants(sp) {
			v, err := conform.Drive(post, open, conform.NewModelClient(sp, m.Impl))
			if err != nil {
				return fmt.Errorf("mutant %s: %w", m.Op, err)
			}
			if v.Pass {
				survivors++
				fmt.Fprintf(out, "  SURVIVED %-12s (%d probe(s) agreed)\n", m.Op, v.Checked)
				continue
			}
			ce := v.Counterexample
			fmt.Fprintf(out, "  killed   %-12s %s: got %s, want %s\n", m.Op, ce.Program, ce.Got, ce.Want)
		}
		if survivors > 0 {
			return exitf(exitSurvivor, "conform: %d mutant(s) survived the %s oracle", survivors, sp.Name)
		}
		fmt.Fprintf(out, "conform %s: all mutants killed\n", sp.Name)
		return nil
	default:
		return exitf(exitUsage, "unknown -impl %q (want self, ref or mutants)", *implName)
	}
}

// conformVerdict drives one session and reports it, mapping a failing
// verdict to the oracle exit code.
func conformVerdict(out io.Writer, spec, what string, post conform.Poster, open *conform.Request, eval conform.Evaluator) error {
	v, err := conform.Drive(post, open, eval)
	if err != nil {
		return err
	}
	if v.Pass {
		fmt.Fprintf(out, "conform %s: PASS (%s agreed on %d probe(s))\n", spec, what, v.Checked)
		return nil
	}
	for i := range v.Failures {
		f := &v.Failures[i]
		fmt.Fprintf(out, "  FAIL %s: got %s, want %s", f.Program, f.Got, f.Want)
		if f.Axiom != "" {
			fmt.Fprintf(out, "  [%s]", f.Axiom)
		}
		fmt.Fprintln(out)
	}
	if ce := v.Counterexample; ce != nil {
		fmt.Fprintf(out, "  minimal counterexample: %s: got %s, want %s (%d shrink step(s))\n", ce.Program, ce.Got, ce.Want, v.ShrinkSteps)
	}
	return exitf(exitOracle, "conform %s: FAIL (%d of %d probe(s) disagree)", spec, v.FailureCount, v.Checked)
}

// httpPoster is the HTTP client side of the conform protocol.
func httpPoster(base string) conform.Poster {
	return func(req *conform.Request) (*conform.Response, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		hr, err := http.Post(base+"/v1/conform", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer hr.Body.Close()
		data, err := io.ReadAll(hr.Body)
		if err != nil {
			return nil, err
		}
		if hr.StatusCode/100 != 2 {
			return nil, &conform.HTTPError{Status: hr.StatusCode, Body: string(bytes.TrimSpace(data))}
		}
		var resp conform.Response
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
}
