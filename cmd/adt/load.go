package main

import (
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"time"

	"algspec/internal/cluster"
	"algspec/internal/faultinject"
	"algspec/internal/loadgen"
	"algspec/internal/runpack"
	"algspec/internal/serve"
)

// cmdLoad boots an in-process adt serve instance and replays a seeded,
// oracle-checked workload against it, optionally under injected faults
// (DESIGN §11). Owning the server is what makes exact /metrics
// reconciliation possible: nobody else can touch the counters.
func cmdLoad(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	fs.SetOutput(out)
	seed := fs.Int64("seed", 1, "workload seed; same seed, same request sequence")
	duration := fs.Duration("duration", 5*time.Second, "nominal run length; total requests = rps * duration")
	rps := fs.Int("rps", 50, "request pacing rate (requests per second)")
	mixSpec := fs.String("mix", "", "workload mix, e.g. normalize=8,check=1,specs=1,conform=2 (empty = default)")
	faults := fs.String("faults", "", "fault points to arm: 'all' or name[=every[:delay]],... (empty = none)")
	sloSpec := fs.String("slo", "", "latency objectives, e.g. p99=50ms,p50=5ms (empty = none)")
	workers := fs.Int("workers", 4, "client worker goroutines; 1 gives a bit-reproducible run")
	retries := fs.Int("retries", 3, "retry budget per request for 503/504/transport errors")
	srvWorkers := fs.Int("server-workers", 0, "server's concurrent normalizations (0 = GOMAXPROCS)")
	srvTimeout := fs.Duration("server-timeout", 2*time.Second, "server per-request deadline")
	srvCache := fs.Int("server-cache", 0, "per-server normal-form cache entries (0 = default, negative = disabled)")
	replicas := fs.Int("replicas", 0, "boot a consistent-hash cluster of N replicas behind a router and load against it (0 = single server)")
	runpackDir := fs.String("runpack", "", "emit a verifiable run artifact into this directory (forces -workers 1; single server only)")
	stratSpec := fs.String("strategies", "", "rotate normalize requests through these evaluation strategies, e.g. innermost,outermost (single server only)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return exitf(exitUsage, "load takes no positional arguments (got %q)", fs.Arg(0))
	}
	if *rps <= 0 || *duration <= 0 {
		return exitf(exitUsage, "load requires positive -rps and -duration")
	}
	strategies, err := loadgen.ParseStrategies(*stratSpec)
	if err != nil {
		return exitf(exitUsage, "load: %v", err)
	}
	if len(strategies) > 0 {
		if *runpackDir != "" {
			// The runpack replay contract predates strategy pinning; packs
			// record strategy-blind requests, so a mixed run cannot be
			// packed yet.
			return exitf(exitUsage, "load: -strategies cannot be combined with -runpack")
		}
		if *replicas > 0 {
			// Cross-strategy hit accounting lives on one server's counter;
			// a cluster would need per-replica reconciliation first.
			return exitf(exitUsage, "load: -strategies requires a single server (-replicas 0)")
		}
	}
	if *runpackDir != "" {
		if *replicas > 0 {
			// A pack must be exactly replayable; the cluster router's
			// connection-level interleaving is not part of the contract.
			return exitf(exitUsage, "load: -runpack requires a single server (-replicas 0)")
		}
		// The verifiable-run contract: one client worker makes the run a
		// pure function of (seed, mix, count, fault plan), so the pack
		// `adt regress` replays is bit-reproducible.
		*workers = 1
	}
	total := int(float64(*rps) * duration.Seconds())
	if total < 1 {
		total = 1
	}

	mix, err := loadgen.ParseMix(*mixSpec)
	if err != nil {
		return exitf(exitUsage, "load: %v", err)
	}
	slos, err := loadgen.ParseSLOs(*sloSpec)
	if err != nil {
		return exitf(exitUsage, "load: %v", err)
	}
	plan, err := loadgen.FaultPlan(*faults)
	if err != nil {
		return exitf(exitUsage, "load: %v", err)
	}

	if *replicas < 0 {
		return exitf(exitUsage, "load: -replicas must be >= 0 (got %d)", *replicas)
	}
	if *replicas > 0 && mix.Conform > 0 {
		// The cluster router does not route /v1/conform (sessions are
		// replica-local state a consistent-hash router cannot follow), so a
		// conform mix against a cluster would only ever see 404s.
		return exitf(exitUsage, "load: conform mix traffic requires a single server (-replicas 0); the cluster router does not route /v1/conform")
	}
	scfg := serve.Config{Workers: *srvWorkers, Timeout: *srvTimeout, CacheSize: *srvCache}

	// Single-server mode (the historic path) loads one in-process serve
	// instance directly; -replicas N puts a consistent-hash router over N
	// replicas and loads through it, adding a second reconciliation level
	// at the shard boundary.
	var baseURL string
	var cl *cluster.Local
	var srv *serve.Server
	if *replicas > 0 {
		cl, err = cluster.StartLocal(*replicas, scfg, cluster.Config{})
		if err != nil {
			return err
		}
		defer cl.Close()
		baseURL = cl.URL()
		fmt.Fprintf(out, "adt load: cluster of %d replica(s) behind router %s\n", *replicas, baseURL)
	} else {
		srv, err = serve.New(scfg)
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		baseURL = ts.URL
	}

	if len(plan) > 0 {
		if err := faultinject.Arm(plan); err != nil {
			// Arm refuses only names that are not registered points.
			return exitf(exitUsage, "load: %v", err)
		}
		defer faultinject.Disarm()
		fmt.Fprintf(out, "adt load: %d fault point(s) armed\n", len(plan))
	}

	fmt.Fprintf(out, "adt load: %d request(s) at %d rps against %s\n", total, *rps, baseURL)
	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:     baseURL,
		Seed:        *seed,
		Requests:    total,
		RPS:         *rps,
		Mix:         mix,
		Strategies:  strategies,
		Workers:     *workers,
		RetryBudget: *retries,
		FaultsArmed: len(plan) > 0,
		SLOs:        slos,
		Record:      *runpackDir != "",
	})
	if err != nil {
		return err
	}
	if *runpackDir != "" {
		// The path goes into the report exactly as typed (deterministic
		// section; no filesystem reads), then the pack is written before
		// the report is printed so the printed report and the pack's
		// report.txt are the same bytes.
		rep.RunpackPath = *runpackDir
		// The run is over and /metrics is uninstrumented: render the
		// final page in-process, as adt serve does for its own pack.
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		m := runpack.Manifest{
			Kind:        runpack.KindLoad,
			Tool:        "adt load",
			BaseVersion: srv.Registry().Base().ID,
			Seed:        *seed,
			RPS:         *rps,
			Mix:         mix.String(),
			Workers:     *workers,
			RetryBudget: *retries,
			FaultsArmed: len(plan) > 0,
			Faults:      runpack.PlanRules(plan),
			Server: runpack.ServerConfig{
				Workers:   *srvWorkers,
				CacheSize: *srvCache,
				TimeoutNS: int64(*srvTimeout),
			},
		}
		if *sloSpec != "" {
			m.SLOs = strings.Split(*sloSpec, ",")
		}
		if err := runpack.Write(*runpackDir, m, rep, rec.Body.String()); err != nil {
			return err
		}
	}
	fmt.Fprint(out, rep.String())
	fmt.Fprint(out, rep.LatencySummary())
	clusterOK := true
	if cl != nil {
		stats, problems, err := cl.Reconcile()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "cluster:")
		for _, st := range stats {
			fmt.Fprintf(out, "  shard %d: forwarded %d, replica served %d, cache %d hit(s) / %d miss(es)\n",
				st.Shard, st.Forwarded, st.Served, st.CacheHits, st.CacheMisses)
		}
		if len(problems) == 0 {
			fmt.Fprintln(out, "  shard reconciliation: exact across all replicas")
		}
		for _, p := range problems {
			clusterOK = false
			fmt.Fprintf(out, "  RECONCILE: %s\n", p)
		}
	}
	if !rep.OK(len(plan) > 0) || !clusterOK {
		return fmt.Errorf("load run failed (see report above)")
	}
	return nil
}
