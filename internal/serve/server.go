// Package serve exposes the specification toolchain as a long-running
// HTTP/JSON service — the "specification as oracle" of Gaudel & Le
// Gall, run as infrastructure. A client POSTs a spec name and a term;
// the server normalizes the term against Guttag's axioms and answers
// with the normal form, the reduction count, and (opt-in) the full
// rewrite trace. Specifications are held in a content-addressed
// registry: POST /v1/specs mints an immutable version id for an
// uploaded source, and normalize requests may pin any version. The
// four checkers run on uploaded specs, the spec library is listable,
// and every engine counter from the rewrite layer is scraped at
// GET /metrics in the Prometheus text format.
//
// Concurrency discipline (DESIGN §10): one immutable compiled
// rewrite.System per spec is shared by reference; every request
// normalizes on its own handler goroutine, once it holds one of
// Config.Workers semaphore slots, on its own Fork carrying per-request
// fuel, the request's context, and (for trace requests) a private
// trace collector. Forks never share engine state or counters — the
// only shared mutable state is the sharded LRU normal-form cache, which
// exchanges immutable entries under shard locks, and the atomic stats
// recorder the forks drain into.
//
// Durability (DESIGN §13): with Config.PersistDir set, uploaded specs
// and every cold normalization are persisted (snapshot + WAL, integrity
// digested), and a restarted server reloads them at boot so its first
// request is served from the warm cache.
package serve

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"algspec/internal/core"
	"algspec/internal/corpus"
	"algspec/internal/metrics"
	"algspec/internal/registry"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/speclib"
)

// Config sizes the server. The zero value of each field selects the
// documented default.
type Config struct {
	// Workers bounds concurrent normalizations (<= 0: GOMAXPROCS).
	Workers int
	// Fuel is the per-request reduction budget and the cap on any
	// request-supplied budget (<= 0: 1<<20, the engine default).
	Fuel int
	// CacheSize bounds the shared normal-form cache in entries
	// (0: DefaultCacheSize; negative: cache disabled).
	CacheSize int
	// Timeout is the per-request wall-clock deadline (0: none). A
	// request may ask for a shorter deadline, never a longer one.
	Timeout time.Duration
	// PersistDir, when non-empty, enables durability: uploaded spec
	// sources and normal-form entries are written under this directory
	// and reloaded at the next boot. Corrupt files are rejected (with
	// the adt_persist_errors_total counter raised) and the server falls
	// back to a cold start.
	PersistDir string
	// SnapshotEvery is the period of the background snapshot that folds
	// the WAL into nf.snapshot (0: DefaultSnapshotEvery). Only
	// meaningful with PersistDir; a final snapshot is always taken on
	// Close.
	SnapshotEvery time.Duration
	// Warm, when true, pre-normalizes the golden-conformance battery
	// (the corpus mirrored in specs/golden/) into the normal-form cache
	// at boot, so even a server without a persisted store answers its
	// first corpus request warm.
	Warm bool
}

// DefaultCacheSize is the normal-form cache bound when Config leaves
// CacheSize zero.
const DefaultCacheSize = 1 << 16

// DefaultSnapshotEvery is the background snapshot period when Config
// leaves SnapshotEvery zero.
const DefaultSnapshotEvery = 30 * time.Second

// Server is the spec-evaluation service. Create with New, mount
// Handler on an http.Server, and Close on the way out.
type Server struct {
	cfg     Config
	reg     *registry.Registry
	env     *core.Env // the base version's environment
	sources []string  // lib + extras, for rebuilding check environments
	cache   *nfCache
	parsed  *parseCache
	pers    *persister
	book    *metrics.Requests // per-(endpoint, code) counts and latency
	rec     rewrite.StatsRecorder
	slots   *slots
	conf    *conformState
	mux     *http.ServeMux

	// certifiedBase counts the base-library specs carrying a confluence
	// certificate (the adt_confluence_certified gauge); crossHits counts
	// cache hits served to a different strategy than the one that
	// computed the entry — possible only on certified specs, where the
	// normal form is strategy-independent by theorem.
	certifiedBase int64
	crossHits     atomic.Int64
	inFlight      atomic.Int64

	snapStop chan struct{}
	snapWG   sync.WaitGroup
	closeMu  sync.Mutex
	closed   bool
}

// New builds a server over the embedded specification library plus any
// extra specification sources (each one full source text, as a file's
// contents). Every spec is compiled eagerly so a bad source fails here,
// not on the first request that touches it.
func New(cfg Config, extraSources ...string) (*Server, error) {
	return NewWithSources(cfg, append(append([]string{}, speclib.Sources...), extraSources...))
}

// NewWithSources builds a server over exactly the given specification
// sources, with no implied library. Production servers go through New;
// this entry point exists for the runpack regression tests, which
// simulate a binary whose embedded library changed (a perturbed axiom)
// and assert that `adt regress` detects the behavioral drift.
func NewWithSources(cfg Config, sources []string) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Fuel <= 0 {
		cfg.Fuel = 1 << 20
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	reg, err := registry.New(sources)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		env:     reg.Base().Env,
		sources: sources,
		cache:   newNFCache(cfg.CacheSize),
		parsed:  newParseCache(cfg.CacheSize),
		book:    &metrics.Requests{},
	}
	if cfg.PersistDir != "" {
		persistCap := cfg.CacheSize
		if persistCap <= 0 {
			persistCap = DefaultCacheSize
		}
		s.pers, err = newPersister(cfg.PersistDir, persistCap)
		if err != nil {
			return nil, err
		}
		s.loadPersisted()
	}
	if cfg.Warm {
		s.warmFromCorpus()
	}
	// Completing the base library at boot (cheap: the certificates are
	// cached on the version) makes the certified set a boot-time fact —
	// the first strategy-mixed request never pays for completion, and
	// the adt_confluence_certified gauge is stable from the first
	// scrape.
	for _, name := range reg.Base().Specs {
		if reg.Base().Certified(name) {
			s.certifiedBase++
		}
	}
	s.slots = newSlots(cfg.Workers)
	s.conf = newConformState()
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/normalize", s.instrument("normalize", s.handleNormalize))
	s.mux.Handle("POST /v1/check", s.instrument("check", s.handleCheck))
	s.mux.Handle("POST /v1/conform", s.instrument("conform", s.handleConform))
	s.mux.Handle("POST /v1/specs", s.instrument("upload", s.handleSpecUpload))
	s.mux.Handle("GET /v1/specs", s.instrument("specs", s.handleSpecs))
	s.mux.Handle("GET /metrics", s.declareMetrics())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.pers != nil {
		s.snapStop = make(chan struct{})
		s.snapWG.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// loadPersisted restores the durable state: re-registers every uploaded
// spec source whose content address still matches its file name, then
// replays the snapshot+WAL into the normal-form cache. Failures never
// abort boot — a corrupt store means a cold start, counted in
// adt_persist_errors_total — because the persisted cache is an
// accelerator, not a source of truth.
func (s *Server) loadPersisted() {
	specs, errs := loadSpecSources(s.cfg.PersistDir)
	s.pers.persistErrs.Add(int64(len(errs)))
	for _, ps := range specs {
		// An edited file would otherwise register as a version nobody
		// uploaded, while the real one silently went missing.
		if id, err := s.reg.ID(ps.source); err != nil || id != ps.id {
			s.pers.persistErrs.Add(1)
			continue
		}
		if _, _, err := s.reg.Register(ps.source); err != nil {
			s.pers.persistErrs.Add(1)
		}
	}
	recs, err := loadNFStore(s.cfg.PersistDir)
	if err != nil {
		s.pers.persistErrs.Add(1)
		return
	}
	s.pers.seed(recs)
	for _, rec := range recs {
		ver, ok := s.reg.Resolve(rec.Version)
		if !ok || rec.Version == "" {
			// An entry written by a server with a different base library
			// (or a lost upload): its terms may not even parse here.
			s.pers.staleSkipped.Add(1)
			continue
		}
		sys, err := ver.Env.System(rec.Spec)
		if err != nil {
			s.pers.staleSkipped.Add(1)
			continue
		}
		in, err := ver.Env.ParseTermAs(rec.Spec, rec.Term, sig.Sort(rec.Sort))
		if err != nil {
			s.pers.persistErrs.Add(1)
			continue
		}
		nf, err := ver.Env.ParseTermAs(rec.Spec, rec.NF, sig.Sort(rec.Sort))
		if err != nil {
			s.pers.persistErrs.Add(1)
			continue
		}
		canon := sys.Interner().Canon(in)
		// Persisted entries reload into the shared partition: only
		// shared-keyed results are ever written to the WAL, so this
		// round-trips exactly.
		s.cache.Put(nfKey{t: canon, strat: stratShared}, cacheEntry{nf: sys.Interner().Canon(nf), steps: rec.Steps})
		s.parsed.Put(ver.ID+"\x00"+rec.Spec+"\x00"+rec.Term, canon)
		s.pers.warmLoaded.Add(1)
	}
}

// warmFromCorpus normalizes the golden-conformance battery into the
// cache at boot. Entries are computed on plain forks (real step counts,
// no slot, no stats recorder — request metrics stay exact) and fed to
// the persister like any cold result, so the warmth is durable too.
func (s *Server) warmFromCorpus() {
	base := s.reg.Base()
	for _, name := range corpus.BatterySpecs() {
		sys, err := base.Env.System(name)
		if err != nil {
			continue
		}
		for _, src := range corpus.Battery(name) {
			t, err := base.Env.ParseTerm(name, src)
			if err != nil {
				continue
			}
			canon := sys.Interner().Canon(t)
			f := sys.Fork(rewrite.WithMaxSteps(s.cfg.Fuel))
			nf, err := f.Normalize(canon)
			if err != nil {
				continue
			}
			steps := f.Stats().Steps
			s.cache.Put(nfKey{t: canon, strat: stratShared}, cacheEntry{nf: nf, steps: steps})
			s.parsed.Put(base.ID+"\x00"+name+"\x00"+src, canon)
			s.pers.append(walRecord{
				Version: base.ID, Spec: name, Sort: string(canon.Sort),
				Term: canon.String(), NF: nf.String(), Steps: steps,
			})
			if s.pers != nil {
				s.pers.warmLoaded.Add(1)
			}
		}
	}
}

// snapshotLoop periodically folds the WAL into a fresh snapshot so a
// crash replays a short log, not the whole history.
func (s *Server) snapshotLoop() {
	defer s.snapWG.Done()
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.pers.snapshot(); err != nil {
				s.pers.persistErrs.Add(1)
			}
		case <-s.snapStop:
			return
		}
	}
}

// Handler returns the HTTP handler tree; mount it on an http.Server or
// an httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the content-addressed spec registry (the cluster
// router reads version ids through it).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Close stops admitting normalizations and drains the admitted ones —
// waiting and running requests finish (or hit their fuel and deadline
// bounds) and write their results to the cache and the WAL — then
// stops the snapshotter and writes a final snapshot. Call it after
// http.Server.Shutdown has stopped new requests. Close is idempotent.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	s.slots.close()
	if s.pers != nil {
		close(s.snapStop)
		s.snapWG.Wait()
		s.pers.close()
	}
}

// declareMetrics declares the families of GET /metrics, in page order.
// Everything is cumulative since process start except the gauges.
func (s *Server) declareMetrics() *metrics.Registry {
	r := &metrics.Registry{}
	r.RequestCounts("adt_requests_total", "Requests served, by endpoint and HTTP status code.", s.book)
	r.Gauge("adt_in_flight", "API requests currently being served (excludes /metrics itself).", s.inFlight.Load)
	r.Counter("adt_cache_hits_total", "Normal-form cache hits.", func() int64 { h, _ := s.cache.Counters(); return h })
	r.Counter("adt_cache_misses_total", "Normal-form cache misses.", func() int64 { _, m := s.cache.Counters(); return m })
	r.Counter("adt_parse_cache_hits_total", "Parse cache hits (term text resolved without reparsing).", func() int64 { h, _ := s.parsed.Counters(); return h })
	r.Counter("adt_parse_cache_misses_total", "Parse cache misses.", func() int64 { _, m := s.parsed.Counters(); return m })
	for _, c := range [...]struct {
		name string
		val  func(rewrite.Stats) int
	}{
		{"adt_engine_steps_total", func(st rewrite.Stats) int { return st.Steps }},
		{"adt_engine_rule_fires_total", func(st rewrite.Stats) int { return st.RuleFires }},
		{"adt_engine_native_calls_total", func(st rewrite.Stats) int { return st.NativeCalls }},
		{"adt_engine_compiled_evals_total", func(st rewrite.Stats) int { return st.CompiledEvals }},
		{"adt_engine_interp_evals_total", func(st rewrite.Stats) int { return st.InterpEvals }},
	} {
		r.Counter(c.name, "Cumulative engine work across all request forks.", func() int64 { return int64(c.val(s.rec.Snapshot())) })
	}
	r.Gauge("adt_interned_terms", "Canonical terms held by the per-spec interners.", s.internedTerms)
	r.RequestLatency("adt_request_duration_seconds", "Request latency, by endpoint.", s.book)
	r.Gauge("adt_registry_versions", "Registry versions held (base library included).", func() int64 { return int64(s.reg.Len()) })
	r.Gauge("adt_confluence_certified", "Base-library specs carrying a confluence + termination certificate.", func() int64 { return s.certifiedBase })
	r.Counter("adt_cache_cross_strategy_hits_total", "Normal-form cache hits served to a different strategy than the one that computed the entry (certified specs only).", s.crossHits.Load)
	s.conf.declareMetrics(r)
	if s.pers != nil {
		s.pers.declareMetrics(r)
	}
	return r
}

// internedTerms sums the interners of every System compiled so far in
// every registry version, uploads included; it compiles nothing, so a
// scrape never builds an upload's copies of the base library.
func (s *Server) internedTerms() int64 {
	var n int64
	for _, v := range s.reg.Versions() {
		for _, sys := range v.Env.Compiled() {
			n += int64(sys.Interner().Size())
		}
	}
	return n
}

// instrument wraps an API handler with the in-flight gauge, the
// per-(endpoint, code) request counter and the latency histogram.
// /metrics itself is served unwrapped so the gauge a scrape reports
// does not count the scrape.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		start := time.Now()
		if rule, ok := fpHandlerDelay.Fire(); ok {
			// Injected stall inside the measured window, so it shows up
			// in the latency histogram exactly like a real one.
			time.Sleep(rule.Delay)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.book.Observe(endpoint, sw.code, time.Since(start).Seconds())
	})
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
