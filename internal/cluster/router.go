package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"algspec/internal/metrics"
	"algspec/internal/registry"
	"algspec/internal/serve"
	"algspec/internal/speclib"
)

// Config sizes a Router. The zero value of each field selects the
// documented default.
type Config struct {
	// ReplicaURLs are the replica base URLs, in shard order. Required,
	// at least one.
	ReplicaURLs []string
	// HealthEvery is the period of the background replica health probe
	// (0: 1s; negative: probing disabled — health then changes only on
	// forwarding outcomes).
	HealthEvery time.Duration
}

// Router is the consistent-hash HTTP tier in front of N serve replicas.
// Create with NewRouter, mount Handler, Close on the way out.
//
// The router holds its own copy of the spec registry — not to evaluate
// terms, but to derive shard keys: a normalize request's term is parsed
// here and its stable structural hash (term.StableHash) keys the ring,
// meaning every spelling of a term routes to the replica whose cache
// holds its normal form. The parsed term is never interned: its hash
// equals that of its canonical node in any interner, and interning
// would grow the router's interners with every fresh term it routes.
// Uploads are registered locally and broadcast to every replica, which
// keeps all registries in lockstep.
type Router struct {
	cfg      Config
	reg      *registry.Registry
	replicas []*replica
	ring     *ring
	client   *http.Client
	mux      *http.ServeMux

	keyMu   sync.RWMutex
	keys    map[string]uint64 // (version, spec, term text) -> shard key
	keysCap int

	rr atomic.Uint64 // round-robin cursor for unsharded endpoints

	book    metrics.Requests // client-facing, by (endpoint, code)
	retries atomic.Int64

	healthStop chan struct{}
	healthWG   sync.WaitGroup
}

type replica struct {
	url       string
	healthy   atomic.Bool
	forwarded atomic.Int64 // proxied requests answered by this replica
	fwdErrors atomic.Int64 // transport failures talking to this replica
}

// declareMetrics declares the router's books. adt_requests_total
// carries the same name and labels as a replica's own counter — the
// router is the serving surface, and the load harness reconciles
// against it unchanged. The adt_router_forwarded_total{shard} counters
// are the second level: each must equal that replica's own total
// request count.
func (rt *Router) declareMetrics() *metrics.Registry {
	perShard := func(val func(*replica) int64) func(metrics.Emit) {
		return func(emit metrics.Emit) {
			for i, rep := range rt.replicas {
				emit(val(rep), "shard", strconv.Itoa(i))
			}
		}
	}
	r := &metrics.Registry{}
	r.RequestCounts("adt_requests_total", "Requests served by the router, by endpoint and HTTP status code.", &rt.book)
	r.Vec("adt_router_forwarded_total", "Requests a replica answered, by shard; reconciles exactly against that replica's adt_requests_total.",
		metrics.Counter, perShard(func(rep *replica) int64 { return rep.forwarded.Load() }))
	r.Vec("adt_router_forward_errors_total", "Transport failures talking to a shard (a nonzero value voids exact reconciliation).",
		metrics.Counter, perShard(func(rep *replica) int64 { return rep.fwdErrors.Load() }))
	r.Counter("adt_router_retries_total", "Forwarding attempts beyond the first, across all requests.", rt.retries.Load)
	r.Vec("adt_router_replica_healthy", "Last known health of each shard (1 = serving).",
		metrics.Gauge, perShard(func(rep *replica) int64 {
			if rep.healthy.Load() {
				return 1
			}
			return 0
		}))
	return r
}

// shardKeyCacheCap bounds the router's (term text -> shard key) cache.
const shardKeyCacheCap = 1 << 16

// forwardTimeout bounds one forwarded request.
const forwardTimeout = 30 * time.Second

// NewRouter builds the routing tier. extraSources mirror the sources
// the replicas were started with, so router-side shard-key parsing
// agrees with replica-side evaluation.
func NewRouter(cfg Config, extraSources ...string) (*Router, error) {
	if len(cfg.ReplicaURLs) == 0 {
		return nil, fmt.Errorf("cluster: at least one replica URL is required")
	}
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = time.Second
	}
	sources := append(append([]string{}, speclib.Sources...), extraSources...)
	reg, err := registry.New(sources)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:  cfg,
		reg:  reg,
		ring: newRing(len(cfg.ReplicaURLs)),
		// The default transport keeps only 2 idle connections per host;
		// a router funneling every client's traffic into a handful of
		// replicas would redial constantly under any real concurrency,
		// and the dial dominates a warm hit. Size the idle pool to the
		// concurrency the router is meant to carry.
		client: &http.Client{
			Timeout: forwardTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		keys:    make(map[string]uint64),
		keysCap: shardKeyCacheCap,
	}
	for _, u := range cfg.ReplicaURLs {
		rep := &replica{url: strings.TrimRight(u, "/")}
		rep.healthy.Store(true) // optimistic until a probe or forward says otherwise
		rt.replicas = append(rt.replicas, rep)
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/normalize", rt.handleNormalize)
	rt.mux.HandleFunc("POST /v1/specs", rt.handleUpload)
	rt.mux.HandleFunc("POST /v1/check", rt.handleAny("check"))
	rt.mux.HandleFunc("GET /v1/specs", rt.handleAny("specs"))
	rt.mux.Handle("GET /metrics", rt.declareMetrics())
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	if cfg.HealthEvery > 0 {
		rt.healthStop = make(chan struct{})
		rt.healthWG.Add(1)
		go rt.healthLoop()
	}
	return rt, nil
}

// Handler returns the router's HTTP handler tree.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health prober.
func (rt *Router) Close() {
	if rt.healthStop != nil {
		close(rt.healthStop)
		rt.healthWG.Wait()
		rt.healthStop = nil
	}
}

// healthLoop probes every replica's /healthz. The endpoint is
// uninstrumented on the replica, so probing never skews the request
// counters the cluster reconciles.
func (rt *Router) healthLoop() {
	defer rt.healthWG.Done()
	t := time.NewTicker(rt.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			for _, rep := range rt.replicas {
				resp, err := rt.client.Get(rep.url + "/healthz")
				ok := err == nil && resp.StatusCode == http.StatusOK
				if resp != nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				rep.healthy.Store(ok)
			}
		case <-rt.healthStop:
			return
		}
	}
}

// shardKey derives the consistent-hash key for one normalize request:
// the FNV of the resolved version id and spec name, folded with the
// parsed term's stable structural hash. Requests the router cannot
// parse (unknown version, syntax error) fall back to hashing the raw
// text — still deterministic, and the replica will produce the
// authoritative error.
func (rt *Router) shardKey(version, spec, termText string) uint64 {
	cacheKey := version + "\x00" + spec + "\x00" + termText
	rt.keyMu.RLock()
	k, ok := rt.keys[cacheKey]
	rt.keyMu.RUnlock()
	if ok {
		return k
	}
	k = rt.computeShardKey(version, spec, termText)
	rt.keyMu.Lock()
	if len(rt.keys) >= rt.keysCap {
		// Full: drop the whole map rather than track recency. Shard keys
		// are cheap to recompute relative to a forwarded normalization.
		rt.keys = make(map[string]uint64)
	}
	rt.keys[cacheKey] = k
	rt.keyMu.Unlock()
	return k
}

func (rt *Router) computeShardKey(version, spec, termText string) uint64 {
	ver, ok := rt.reg.Resolve(version)
	if !ok {
		return fnv64(version + "\x00" + spec + "\x00" + termText)
	}
	base := fnv64(ver.ID + "\x00" + spec)
	t, err := ver.Env.ParseTerm(spec, termText)
	if err != nil {
		return base ^ fnv64(termText)
	}
	return mix64(base ^ t.StableHash())
}

// handleNormalize is the sharded path: decode enough of the body to
// derive the shard key, then forward the raw bytes down the key's
// preference list.
func (rt *Router) handleNormalize(w http.ResponseWriter, r *http.Request) {
	body, req, ok := rt.readNormalize(w, r)
	if !ok {
		return
	}
	pref := rt.ring.preference(rt.shardKey(req.Version, req.Spec, req.Term))
	rt.forward(w, r, "normalize", "/v1/normalize", body, pref)
}

// readNormalize enforces the same POST contract the replicas do, so a
// malformed request is rejected here (and counted here) instead of
// being forwarded to a shard chosen from garbage.
func (rt *Router) readNormalize(w http.ResponseWriter, r *http.Request) ([]byte, serve.NormalizeRequest, bool) {
	var req serve.NormalizeRequest
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
		rt.writeError(w, "normalize", http.StatusUnsupportedMediaType,
			fmt.Sprintf("Content-Type must be application/json (got %q)", ct))
		return nil, req, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.writeError(w, "normalize", http.StatusRequestEntityTooLarge, "request body exceeds the 1048576-byte limit")
		return nil, req, false
	}
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeError(w, "normalize", http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return nil, req, false
	}
	return body, req, true
}

// handleUpload broadcasts a spec registration to every replica (their
// registries must stay in lockstep for version-pinned requests to work
// anywhere) and registers it locally for shard-key parsing. Content
// addressing makes the broadcast idempotent and order-free: every
// replica independently derives the same version id.
func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req serve.SpecUploadRequest
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
		rt.writeError(w, "upload", http.StatusUnsupportedMediaType,
			fmt.Sprintf("Content-Type must be application/json (got %q)", ct))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.writeError(w, "upload", http.StatusRequestEntityTooLarge, "request body exceeds the 1048576-byte limit")
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeError(w, "upload", http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if strings.TrimSpace(req.Source) != "" {
		// Local registration may fail (bad source); the replicas will
		// answer with the authoritative 400, so the error is dropped here.
		rt.reg.Register(req.Source)
	}
	var firstStatus int
	var firstBody []byte
	var firstCT string
	for i, rep := range rt.replicas {
		status, hdr, respBody, err := rt.forwardOnce(r, rep, "/v1/specs", body)
		if err != nil {
			rt.writeError(w, "upload", http.StatusBadGateway,
				fmt.Sprintf("broadcast to shard %d (%s) failed: %v", i, rep.url, err))
			return
		}
		if i == 0 {
			firstStatus, firstBody, firstCT = status, respBody, hdr.Get("Content-Type")
		} else if status >= 300 && firstStatus < 300 {
			// A replica disagreeing with the first is a cluster
			// inconsistency worth surfacing over the happy answer.
			firstStatus, firstBody, firstCT = status, respBody, hdr.Get("Content-Type")
		}
	}
	rt.reply(w, "upload", firstStatus, firstCT, firstBody)
}

// handleAny serves the unsharded endpoints (check, spec listing): any
// healthy replica can answer, so they round-robin for load spreading.
func (rt *Router) handleAny(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			rt.writeError(w, endpoint, http.StatusRequestEntityTooLarge, "request body exceeds the 1048576-byte limit")
			return
		}
		n := len(rt.replicas)
		start := int(rt.rr.Add(1)-1) % n
		pref := make([]int, 0, n)
		for i := 0; i < n; i++ {
			pref = append(pref, (start+i)%n)
		}
		rt.forward(w, r, endpoint, r.URL.Path, body, pref)
	}
}

// forward walks the preference list: the first shard that produces an
// HTTP response other than 503 wins. Transport errors and 503s move to
// the next shard, so every replica gets one chance (a retry budget of
// replicas−1) — any replica can compute any term, the preference order
// only decides whose cache is warm.
// Unhealthy shards are skipped while a healthy one remains.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, endpoint, path string, body []byte, pref []int) {
	ordered := make([]*replica, 0, len(pref))
	var skipped []*replica
	for _, shard := range pref {
		rep := rt.replicas[shard]
		if rep.healthy.Load() {
			ordered = append(ordered, rep)
		} else {
			skipped = append(skipped, rep)
		}
	}
	// A fully unhealthy cluster still tries: the probe may be stale.
	ordered = append(ordered, skipped...)

	var lastErr error
	for i, rep := range ordered {
		if i > 0 {
			rt.retries.Add(1)
		}
		status, hdr, respBody, err := rt.forwardOnce(r, rep, path, body)
		if err != nil {
			lastErr = err
			continue
		}
		if status == http.StatusServiceUnavailable && i < len(ordered)-1 {
			// The shard is up but refusing (shutdown, saturation): the
			// next replica may still compute. 504 is not retried — the
			// request's own deadline has already been spent once.
			lastErr = fmt.Errorf("shard %s answered 503", rep.url)
			continue
		}
		rt.reply(w, endpoint, status, hdr.Get("Content-Type"), respBody)
		return
	}
	rt.writeError(w, endpoint, http.StatusBadGateway,
		fmt.Sprintf("no replica could serve the request (last error: %v)", lastErr))
}

// forwardOnce proxies one request to one replica. The replica's
// forwarded counter moves iff it produced an HTTP response — the same
// event its own adt_requests_total counts — which is what makes
// router-side and replica-side books reconcile exactly. Transport
// errors mark the replica unhealthy immediately; the next health probe
// can redeem it.
func (rt *Router) forwardOnce(r *http.Request, rep *replica, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, rep.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.fwdErrors.Add(1)
		rep.healthy.Store(false)
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		rep.fwdErrors.Add(1)
		return 0, nil, nil, err
	}
	rep.forwarded.Add(1)
	rep.healthy.Store(true)
	return resp.StatusCode, resp.Header, respBody, nil
}

// reply writes a proxied response through and books it under the
// router's client-facing counters.
func (rt *Router) reply(w http.ResponseWriter, endpoint string, status int, contentType string, body []byte) {
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	w.WriteHeader(status)
	w.Write(body)
	rt.book.Count(endpoint, status)
}

func (rt *Router) writeError(w http.ResponseWriter, endpoint string, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, _ := json.MarshalIndent(serve.ErrorResponse{Error: msg}, "", "  ")
	w.Write(append(data, '\n'))
	rt.book.Count(endpoint, status)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}
