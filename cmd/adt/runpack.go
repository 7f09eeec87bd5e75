package main

import (
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"algspec/internal/runpack"
	"algspec/internal/serve"
)

// cmdVerifyRun re-checks a runpack from first principles: every
// per-line digest and the whole-pack footer, books balance, metrics
// monotonicity, and byte-for-byte re-normalization of every golden
// normal form through the current engine. Exit codes follow the
// toolchain contract: 0 clean, 1 the directory is unreadable, 2 usage,
// 3 the pack fails verification (every problem is named file:line).
func cmdVerifyRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify-run", flag.ContinueOnError)
	if err := parseFlags(fs, args, out); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return exitf(exitUsage, "verify-run takes exactly one runpack directory")
	}
	dir := fs.Arg(0)
	res, err := runpack.Verify(dir)
	if err != nil {
		return err
	}
	if !res.OK() {
		for _, p := range res.Problems {
			fmt.Fprintf(out, "  %s\n", p)
		}
		return exitf(exitOracle, "verify-run: %s: %d problem(s)", dir, len(res.Problems))
	}
	m := res.Manifest
	switch m.Kind {
	case runpack.KindLoad:
		fmt.Fprintf(out, "adt verify-run: %s OK (load pack: %d request(s), seed %d, library %s)\n",
			dir, m.Requests, m.Seed, m.BaseVersion)
	default:
		fmt.Fprintf(out, "adt verify-run: %s OK (serve pack, library %s)\n", dir, m.BaseVersion)
	}
	return nil
}

// cmdRegress replays a load pack's workload against a fresh in-process
// server built from the pack's own manifest — same seed, same fault
// schedule, same server configuration, one client worker — and diffs
// the outcome against the record. Exit codes: 0 the replay reproduced
// the run exactly, 1 infrastructure, 2 usage (including a serve pack,
// which records nothing replayable), 3 behavioral drift (the diff
// names the first divergent request, spec and term).
func cmdRegress(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("regress", flag.ContinueOnError)
	if err := parseFlags(fs, args, out); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return exitf(exitUsage, "regress takes exactly one runpack directory")
	}
	dir := fs.Arg(0)
	res, err := runpack.Read(dir)
	if err != nil {
		return err
	}
	if res.Manifest != nil && res.Manifest.Kind == runpack.KindServe {
		return exitf(exitUsage, "regress: %s is a serve pack; only load packs record a replayable workload", dir)
	}
	if !res.OK() {
		// Never replay a pack that fails integrity: a tampered workload
		// would make the diff meaningless.
		for _, p := range res.Problems {
			fmt.Fprintf(out, "  %s\n", p)
		}
		return exitf(exitOracle, "regress: %s fails integrity (%d problem(s)); not replaying", dir, len(res.Problems))
	}
	m := res.Manifest

	srv, err := serve.New(serve.Config{
		Workers:   m.Server.Workers,
		Fuel:      m.Server.Fuel,
		CacheSize: m.Server.CacheSize,
		Timeout:   time.Duration(m.Server.TimeoutNS),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fmt.Fprintf(out, "adt regress: replaying %d request(s) (seed %d, %d fault rule(s)) against a fresh server\n",
		m.Requests, m.Seed, len(m.Faults))
	diff, err := runpack.Regress(res, runpack.RegressConfig{
		BaseURL:            ts.URL,
		CurrentBaseVersion: srv.Registry().Base().ID,
	})
	if err != nil {
		return err
	}
	if diff.Identical {
		fmt.Fprintf(out, "adt regress: %s reproduced exactly (outcomes, normal forms, step counts, books)\n", dir)
		return nil
	}
	for _, line := range diff.Lines {
		fmt.Fprintf(out, "  %s\n", line)
	}
	if diff.Note != "" {
		fmt.Fprintf(out, "  %s\n", diff.Note)
	}
	return exitf(exitOracle, "regress: %s: behavioral drift (%d difference(s))", dir, len(diff.Lines))
}
