package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"time"

	"algspec/internal/runpack"
	"algspec/internal/serve"
)

// serveReady, when non-nil, receives the server's bound address once it
// is listening; serveStop, when non-nil, triggers the same graceful
// shutdown a SIGINT does. Both exist for the tests, which boot the real
// subcommand on a kernel-chosen port and must know when it is up and how
// to stop it without signalling the whole test process.
var (
	serveReady chan<- string
	serveStop  <-chan struct{}
)

func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "localhost:8044", "listen address (host:port; port 0 picks a free one)")
	workers := fs.Int("workers", 0, "concurrent normalizations (0 = GOMAXPROCS)")
	fuel := fs.Int("fuel", 0, "per-request reduction budget and cap on client budgets (0 = engine default)")
	cacheSize := fs.Int("cache", 0, "shared normal-form cache entries (0 = default, negative = disabled)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request wall-clock deadline (0 = none)")
	persist := fs.String("persist", "", "durability directory: uploaded specs and the normal-form cache survive restarts (empty = off)")
	snapEvery := fs.Duration("snapshot-every", 0, "background snapshot period for the persisted cache (0 = default 30s)")
	warm := fs.Bool("warm", false, "pre-normalize the golden-conformance battery into the cache at boot")
	runpackDir := fs.String("runpack", "", "emit a verifiable session artifact (config + final metrics snapshot) into this directory at shutdown")
	files, err := parseInterleaved(fs, args)
	if err != nil {
		return err
	}
	// Negative values would silently fall back to the <= 0 defaults in
	// serve.New; a flag that *looks* like a constraint must not be one
	// the server ignores.
	if *workers < 0 {
		return exitf(exitUsage, "serve: -workers must be >= 0 (got %d)", *workers)
	}
	if *fuel < 0 {
		return exitf(exitUsage, "serve: -fuel must be >= 0 (got %d)", *fuel)
	}
	extras := make([]string, len(files))
	for i, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		extras[i] = string(src)
	}
	srv, err := serve.New(serve.Config{
		Workers:       *workers,
		Fuel:          *fuel,
		CacheSize:     *cacheSize,
		Timeout:       *timeout,
		PersistDir:    *persist,
		SnapshotEvery: *snapEvery,
		Warm:          *warm,
	}, extras...)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "adt serve: listening on http://%s (POST /v1/normalize, POST /v1/specs, POST /v1/check, GET /v1/specs, GET /metrics, GET /healthz)\n", ln.Addr())
	if serveReady != nil {
		serveReady <- ln.Addr().String()
	}

	hs := &http.Server{Handler: srv.Handler()}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		select {
		case <-ctx.Done():
		case <-serveStop:
		}
		// Stop accepting, let in-flight HTTP exchanges finish, then drain
		// the admitted normalizations (srv.Close, deferred above).
		shutdownCtx, c := context.WithTimeout(context.Background(), 10*time.Second)
		defer c()
		done <- hs.Shutdown(shutdownCtx)
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	if *runpackDir != "" {
		// The listener is closed but the handler still answers: scrape
		// the final /metrics in-process and seal the session artifact.
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		m := runpack.Manifest{
			Kind:        runpack.KindServe,
			Tool:        "adt serve",
			BaseVersion: srv.Registry().Base().ID,
			Server: runpack.ServerConfig{
				Workers:   *workers,
				Fuel:      *fuel,
				CacheSize: *cacheSize,
				TimeoutNS: int64(*timeout),
			},
		}
		for _, v := range srv.Registry().Versions() {
			if v.ID != m.BaseVersion {
				m.Versions = append(m.Versions, v.ID)
			}
		}
		if err := runpack.Write(*runpackDir, m, nil, rec.Body.String()); err != nil {
			return err
		}
		fmt.Fprintf(out, "adt serve: runpack written to %s\n", *runpackDir)
	}
	fmt.Fprintln(out, "adt serve: shut down cleanly")
	return nil
}
