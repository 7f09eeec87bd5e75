package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync"
	"time"

	"algspec/internal/complete"
	"algspec/internal/consist"
	"algspec/internal/faultinject"
	"algspec/internal/lang"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
)

// NormalizeRequest is the body of POST /v1/normalize.
type NormalizeRequest struct {
	// Spec names the specification to evaluate against.
	Spec string `json:"spec"`
	// Version pins a registry version ("sha256:<hex>" as returned by
	// POST /v1/specs). Empty means the base library. The response echoes
	// the resolved id whenever the request pinned one.
	Version string `json:"version,omitempty"`
	// Term is the ground term to normalize, in surface syntax.
	Term string `json:"term"`
	// Strategy selects the evaluation order: "innermost" (the default)
	// or "outermost". Each strategy keeps its own normal-form cache
	// entries, and only innermost entries are persisted.
	Strategy string `json:"strategy,omitempty"`
	// Trace, when true, returns every rewrite step (and bypasses the
	// normal-form cache, which stores only results).
	Trace bool `json:"trace,omitempty"`
	// Fuel overrides the per-request reduction budget; it is capped by
	// the server's -fuel flag.
	Fuel int `json:"fuel,omitempty"`
	// TimeoutMs overrides the per-request deadline; it is capped by the
	// server's -timeout flag.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// NormalizeResponse is the 200 body of POST /v1/normalize.
type NormalizeResponse struct {
	Spec string `json:"spec"`
	// Version is the resolved registry version id, echoed only when the
	// request pinned one (base-library requests stay version-silent).
	Version string `json:"version,omitempty"`
	// Input echoes the parsed term in canonical spelling.
	Input      string `json:"input"`
	NormalForm string `json:"normal_form"`
	// Steps is the cold normalization's reduction count (echoed
	// unchanged on cache hits).
	Steps  int         `json:"steps"`
	Cached bool        `json:"cached"`
	Trace  []TraceStep `json:"trace,omitempty"`
}

// TraceStep is one rewrite in a traced normalization.
type TraceStep struct {
	Rule   string `json:"rule"`
	Before string `json:"before"`
	After  string `json:"after"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Line/Col locate a syntax error in the submitted term or source.
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
	// Steps reports how much fuel a 422 burned before giving up.
	Steps int `json:"steps,omitempty"`
}

// CheckRequest is the body of POST /v1/check: specification source to
// run the four checkers on. The source is loaded on top of the server's
// library, so uploads may use library specs.
type CheckRequest struct {
	Source string `json:"source"`
	// Depth bounds the ground-term enumeration of the dynamic checks
	// (default 3, capped at 5 — the term count is exponential in it).
	Depth int `json:"depth,omitempty"`
	// Dynamic disables the two ground-term checkers when set to false.
	Dynamic *bool `json:"dynamic,omitempty"`
}

// CheckResponse reports the four checkers per uploaded spec.
type CheckResponse struct {
	OK    bool        `json:"ok"`
	Specs []SpecCheck `json:"specs"`
}

// SpecCheck is one spec's verdicts. The dynamic fields are absent when
// the request disabled the ground-term checks.
type SpecCheck struct {
	Name             string   `json:"name"`
	Complete         bool     `json:"complete"`
	Consistent       bool     `json:"consistent"`
	DynamicComplete  *bool    `json:"dynamic_complete,omitempty"`
	GroundConsistent *bool    `json:"ground_consistent,omitempty"`
	Problems         []string `json:"problems,omitempty"`
}

// SpecsResponse is the body of GET /v1/specs.
type SpecsResponse struct {
	Specs []speclib.Summary `json:"specs"`
	// Versions lists the registered uploads (the base library is implied
	// and omitted, so servers that never saw an upload keep the historic
	// response shape).
	Versions []VersionSummary `json:"versions,omitempty"`
}

// VersionSummary is one uploaded registry version in GET /v1/specs.
type VersionSummary struct {
	Version string   `json:"version"`
	Specs   []string `json:"specs"`
}

// SpecUploadRequest is the body of POST /v1/specs: specification source
// to register. The source is canonically formatted and content-
// addressed; registering the same content twice returns the same
// version id.
type SpecUploadRequest struct {
	Source string `json:"source"`
}

// SpecUploadResponse answers an upload: 201 when the version was
// created, 200 when the content was already registered.
type SpecUploadResponse struct {
	Version string   `json:"version"`
	Created bool     `json:"created"`
	Specs   []string `json:"specs"`
}

// encBufPool recycles the encode buffers of writeJSON and
// writeNormalizeResponse, so the warm normalize path allocates no
// output buffer per response (the serve_alloc_budget gate).
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps what goes back in the pool: one giant trace
// response must not pin its buffer forever.
const maxPooledBuf = 64 << 10

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// v is one of our own response structs; this cannot fail.
		panic(fmt.Sprintf("serve: marshaling %T: %v", v, err))
	}
	send(w, code, buf)
}

// send answers code with the JSON body in buf, a buffer from
// encBufPool, and returns the buffer to the pool.
func send(w http.ResponseWriter, code int, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		encBufPool.Put(buf)
	}
}

// maxBodyBytes caps POST bodies: a term or spec source that needs more
// than a megabyte is not a request, it is an attack (or a bug), and
// reading it unbounded would let one client exhaust server memory.
const maxBodyBytes = 1 << 20

// readJSON enforces the POST contract and decodes the body into v:
// the Content-Type must be application/json (415 otherwise — a client
// sending a form or raw bytes should learn so before its payload is
// half-interpreted), and the body is capped at maxBodyBytes via
// http.MaxBytesReader (413 on overflow, and the connection is closed so
// the rest of the oversized body is never read). Returns false when it
// already wrote an error response.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
		writeJSON(w, http.StatusUnsupportedMediaType,
			ErrorResponse{Error: fmt.Sprintf("Content-Type must be application/json (got %q)", ct)})
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				ErrorResponse{Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid JSON body: " + err.Error()})
		return false
	}
	return true
}

// writeParseError answers 400, attaching the first syntax-error
// position when the error carries one.
func writeParseError(w http.ResponseWriter, err error) {
	resp := ErrorResponse{Error: err.Error()}
	var el lang.ErrorList
	var one *lang.Error
	switch {
	case errors.As(err, &el) && len(el) > 0:
		resp.Line, resp.Col = el[0].Line, el[0].Col
	case errors.As(err, &one):
		resp.Line, resp.Col = one.Line, one.Col
	}
	writeJSON(w, http.StatusBadRequest, resp)
}

func (s *Server) handleNormalize(w http.ResponseWriter, r *http.Request) {
	var req NormalizeRequest
	if !readJSON(w, r, &req) {
		return
	}
	ver, ok := s.reg.Resolve(req.Version)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown version %q", req.Version)})
		return
	}
	// The response pins the version only when the request did: base
	// requests keep the historic shape.
	echoVersion := ""
	if req.Version != "" {
		echoVersion = ver.ID
	}
	var strategy rewrite.Strategy
	switch req.Strategy {
	case "", "innermost":
		strategy = rewrite.Innermost
	case "outermost":
		strategy = rewrite.Outermost
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown strategy %q: want innermost or outermost", req.Strategy)})
		return
	}
	sp, ok := ver.Env.Get(req.Spec)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown specification %q", req.Spec)})
		return
	}
	base, err := ver.Env.System(sp.Name)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	// The parse cache short-circuits lexing/parsing/sort-checking for
	// hot request strings; on a miss the term is read straight into the
	// spec's shared interner, whose canonical pointer is the normal-form
	// cache key (forks resolve it in O(1)). Keys carry that interner,
	// which belongs to this version's spec alone, so entries are never
	// invalidated — a new upload mints new keys and the old version's
	// entries idle out of the LRU.
	pk := parseKey{in: base.Interner(), text: req.Term}
	canon, ok := s.parsed.Get(pk)
	if !ok {
		canon, err = ver.Env.InternTerm(pk.in, sp.Name, req.Term, "")
		if err != nil {
			writeParseError(w, err)
			return
		}
		s.parsed.Put(pk, canon)
	}

	useCache := !req.Trace
	if useCache {
		if hit, ok := s.cache.Get(nfKey{t: canon, strat: strategy}); ok {
			writeNormalizeResponse(w, &NormalizeResponse{
				Spec:    sp.Name,
				Version: echoVersion,
				Steps:   hit.steps,
				Cached:  true,
			}, canon, hit.nf)
			return
		}
	}

	fuel := s.cfg.Fuel
	if req.Fuel > 0 && req.Fuel < fuel {
		fuel = req.Fuel
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	if err := s.slots.acquire(ctx); err != nil {
		// The miss this request charged in Get stands: it asked the
		// cache and the cache had no answer.
		if errors.Is(err, errShuttingDown) {
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is shutting down"})
		} else {
			// The deadline passed while waiting for a slot.
			writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "request timed out before a worker was free"})
		}
		return
	}
	// Holding the slot until the handler returns keeps Close's drain
	// over the cache and WAL writes below, and frees it on any exit.
	defer s.slots.release()

	// The request's fork carries its fuel, its context (the engine
	// polls it every 1024 reductions, so a passed deadline or a hung-up
	// client ends the work) and, for trace requests, a private trace
	// collector: forks share no mutable engine state.
	var trace []TraceStep
	opts := []rewrite.Option{rewrite.WithMaxSteps(fuel), rewrite.WithContext(ctx)}
	if strategy != rewrite.Innermost {
		opts = append(opts, rewrite.WithStrategy(strategy))
	}
	if faultinject.Armed() {
		// The engine-level fault points ride the request's fork via the
		// same seam the deadline does; the Armed check keeps the normal
		// path free of the extra option (and its closure).
		opts = append(opts, rewrite.WithFault(engineFaultHook))
	}
	if req.Trace {
		opts = append(opts, rewrite.WithTrace(func(ts rewrite.TraceStep) {
			trace = append(trace, TraceStep{Rule: ts.Rule.Label, Before: ts.Before.String(), After: ts.After.String()})
		}))
	}
	sys := base.Fork(opts...)
	nf, err := sys.Normalize(canon)
	st := sys.Stats()
	s.rec.Record(st)
	if useCache && err == nil {
		s.cache.Put(nfKey{t: canon, strat: strategy}, cacheEntry{nf: nf, steps: st.Steps})
		// Durability rides the cold path: the WAL write hides behind the
		// normalization this request just paid for. A WAL record names no
		// strategy and reloads as an innermost entry, so only innermost
		// results are persisted.
		if strategy == rewrite.Innermost {
			s.pers.append(walRecord{
				Version: ver.ID, Spec: sp.Name, Sort: string(canon.Sort),
				Term: canon.String(), NF: nf.String(), Steps: st.Steps,
			})
		}
	}
	switch {
	case err == nil:
		writeNormalizeResponse(w, &NormalizeResponse{
			Spec:    sp.Name,
			Version: echoVersion,
			Steps:   st.Steps,
			Cached:  false,
			Trace:   trace,
		}, canon, nf)
	case errors.Is(err, rewrite.ErrCanceled):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "normalization exceeded the request deadline"})
	default:
		var fuelErr *rewrite.ErrFuel
		if errors.As(err, &fuelErr) {
			writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{
				Error: err.Error(),
				Steps: fuelErr.Steps,
			})
			return
		}
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}

// requestContext derives the request's context with the effective
// deadline: the server's -timeout, tightened by the request's
// timeout_ms when that is shorter.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if t := time.Duration(timeoutMs) * time.Millisecond; timeoutMs > 0 && (d == 0 || t < d) {
		d = t
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !readJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Source) == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty source: POST {\"source\": \"spec ... end\"}"})
		return
	}
	depth := req.Depth
	switch {
	case depth <= 0:
		depth = 3
	case depth > 5:
		depth = 5 // ground-term count is exponential in depth
	}
	dynamic := req.Dynamic == nil || *req.Dynamic

	// Uploaded specs are checked in a fresh extension of the base env:
	// the shared env must never grow request state, and two concurrent
	// uploads must not see each other.
	env := s.env.Extend()
	added, err := env.Load(req.Source)
	if err != nil {
		writeParseError(w, err)
		return
	}

	resp := CheckResponse{OK: true}
	for _, sp := range added {
		sc := SpecCheck{Name: sp.Name}
		cr := complete.Check(sp)
		sc.Complete = cr.OK()
		if !cr.OK() {
			sc.Problems = append(sc.Problems, strings.TrimSpace(cr.String()))
		}
		kr := consist.Check(sp)
		sc.Consistent = kr.OK()
		if !kr.OK() {
			sc.Problems = append(sc.Problems, strings.TrimSpace(kr.String()))
		}
		if dynamic {
			sys, err := env.System(sp.Name)
			if err != nil {
				writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
				return
			}
			dr := complete.CheckDynamic(sp, complete.DynamicConfig{Depth: depth, System: sys, Workers: s.cfg.Workers})
			ok := dr.OK()
			sc.DynamicComplete = &ok
			if !ok {
				sc.Problems = append(sc.Problems, strings.TrimSpace(dr.String()))
			}
			gr := consist.CheckGround(sp, consist.GroundConfig{Depth: depth, System: sys, Workers: s.cfg.Workers})
			gok := gr.OK()
			sc.GroundConsistent = &gok
			if !gok {
				sc.Problems = append(sc.Problems, strings.TrimSpace(gr.String()))
			}
		}
		if len(sc.Problems) > 0 {
			resp.OK = false
		}
		resp.Specs = append(resp.Specs, sc)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSpecUpload registers specification source in the content-
// addressed registry: canonical formatting, SHA-256 version id,
// compile-once against the base library. Re-uploading existing content
// is free and answers 200 with the existing id; new content compiles,
// persists (when durability is on) and answers 201.
func (s *Server) handleSpecUpload(w http.ResponseWriter, r *http.Request) {
	var req SpecUploadRequest
	if !readJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Source) == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty source: POST {\"source\": \"spec ... end\"}"})
		return
	}
	v, created, err := s.reg.Register(req.Source)
	if err != nil {
		writeParseError(w, err)
		return
	}
	if created {
		if err := s.pers.saveSpec(v.ID, v.Source); err != nil {
			s.pers.persistErrs.Add(1)
		}
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, SpecUploadResponse{Version: v.ID, Created: created, Specs: v.Specs})
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	resp := SpecsResponse{Specs: speclib.Summarize(s.env)}
	for i := range resp.Specs {
		// The base version caches one certificate per spec, computed on
		// the first listing or /metrics scrape that asks for it.
		if c := s.reg.Base().Certificate(resp.Specs[i].Name); c != nil {
			certified := c.CertifiesAxioms()
			resp.Specs[i].Confluent = &certified
		}
	}
	for _, v := range s.reg.Versions() {
		if v.Source == "" {
			continue // the base library is implied
		}
		resp.Versions = append(resp.Versions, VersionSummary{Version: v.ID, Specs: v.Specs})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is the cluster router's liveness probe: uninstrumented
// (a health check must not skew request metrics) and cache-free, it
// answers as long as the process can serve HTTP at all.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}
