package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"algspec/internal/conform"
	"algspec/internal/faultinject"
	"algspec/internal/metrics"
	"algspec/internal/registry"
	"algspec/internal/rewrite"
	"algspec/internal/sig"
	"algspec/internal/term"
)

// Conformance as a service (DESIGN §14): POST /v1/conform drives a
// remote implementation through an axiom-oracle session. The server
// plans ground probe programs from the pinned spec version's axioms,
// the client evaluates them on its implementation and reports
// observations, and the server judges every observation against the
// engine's normal form — shrinking any disagreement to a minimal
// counterexample through further candidate rounds. Sessions are
// in-memory, bounded, TTL-reaped, and replay-idempotent per round so a
// client may retry a faulted observe verbatim.

const (
	// maxConformSessions bounds live sessions; opens beyond it answer 429.
	maxConformSessions = 512
	// conformSessionTTL reaps sessions abandoned by their client.
	conformSessionTTL = 5 * time.Minute
)

// conformSession is one live (or just-finished, replayable) session.
type conformSession struct {
	mu      sync.Mutex
	sess    *conform.Session
	spec    string
	version string
	// expires is the TTL deadline in unix nanos. purge reads it under
	// cs.mu while observes refresh it under the per-session c.mu, so it
	// is atomic rather than guarded by either lock.
	expires atomic.Int64

	// lastRound/lastResp replay the previous answer when a client retries
	// a round it already completed (its response was lost to a fault).
	lastRound int
	lastResp  *conform.Response
}

// conformState is the endpoint's shared state and its adt_conform_*
// counters.
type conformState struct {
	mu       sync.Mutex
	sessions map[string]*conformSession
	nextID   atomic.Int64

	opened   atomic.Int64
	expired  atomic.Int64
	rejected atomic.Int64
	programs atomic.Int64
	pass     atomic.Int64
	fail     atomic.Int64
}

func newConformState() *conformState {
	return &conformState{sessions: make(map[string]*conformSession)}
}

// purge drops expired sessions; callers hold cs.mu.
func (cs *conformState) purge(now time.Time) {
	for id, c := range cs.sessions {
		if now.UnixNano() > c.expires.Load() {
			delete(cs.sessions, id)
			cs.expired.Add(1)
		}
	}
}

// active is the live-session gauge.
// declareMetrics declares the conformance books.
func (cs *conformState) declareMetrics(r *metrics.Registry) {
	r.Counter("adt_conform_sessions_opened_total", "Conformance sessions opened since boot.", cs.opened.Load)
	r.Gauge("adt_conform_sessions_active", "Conformance sessions currently live (not closed, reaped or expired).", func() int64 { return int64(cs.active()) })
	r.Counter("adt_conform_sessions_expired_total", "Conformance sessions reaped by the TTL.", cs.expired.Load)
	r.Counter("adt_conform_sessions_rejected_total", "Conformance opens refused at the session cap (429).", cs.rejected.Load)
	r.Counter("adt_conform_programs_total", "Probe programs served to conformance clients (plan plus shrink candidates).", cs.programs.Load)
	r.Counter("adt_conform_pass_total", "Conformance verdicts that passed.", cs.pass.Load)
	r.Counter("adt_conform_fail_total", "Conformance verdicts that failed (counterexample returned).", cs.fail.Load)
}

func (cs *conformState) active() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.purge(time.Now())
	return len(cs.sessions)
}

// conformNormalizer builds the per-request engine seam the planner and
// judge evaluate through: a fresh fork carrying this request's fuel,
// context and (when armed) fault hook — the same discipline as
// handleNormalize, minus the slots (conform rounds normalize many small
// probes; admitting each would cost more than it bounds).
func (s *Server) conformNormalizer(ctx context.Context, ver *registry.Version, spec string) (conform.Normalizer, error) {
	base, err := ver.Env.System(spec)
	if err != nil {
		return nil, err
	}
	opts := []rewrite.Option{rewrite.WithMaxSteps(s.cfg.Fuel), rewrite.WithContext(ctx)}
	if faultinject.Armed() {
		opts = append(opts, rewrite.WithFault(engineFaultHook))
	}
	f := base.Fork(opts...)
	intern := base.Interner()
	return func(t *term.Term) (*term.Term, error) {
		return f.Normalize(intern.Canon(t))
	}, nil
}

func (s *Server) handleConform(w http.ResponseWriter, r *http.Request) {
	var req conform.Request
	if !readJSON(w, r, &req) {
		return
	}
	switch req.Action {
	case "open":
		s.conformOpen(w, r, &req)
	case "observe":
		s.conformObserve(w, r, &req)
	case "close":
		s.conformClose(w, &req)
	default:
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("unknown action %q (want open, observe or close)", req.Action)})
	}
}

func (s *Server) conformOpen(w http.ResponseWriter, r *http.Request, req *conform.Request) {
	ver, ok := s.reg.Resolve(req.Version)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown version %q", req.Version)})
		return
	}
	sp, ok := ver.Env.Get(req.Spec)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown specification %q", req.Spec)})
		return
	}
	var sorts []sig.Sort
	for _, so := range req.ObserveSorts {
		if !sp.Sig.HasSort(sig.Sort(so)) {
			writeJSON(w, http.StatusBadRequest,
				ErrorResponse{Error: fmt.Sprintf("observe_sorts: %s has no sort %q", sp.Name, so)})
			return
		}
		sorts = append(sorts, sig.Sort(so))
	}

	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	norm, err := s.conformNormalizer(ctx, ver, sp.Name)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	plan, err := conform.NewPlan(ver.Env, sp, norm, conform.PlanConfig{
		N: req.N, Depth: req.Depth, Seed: req.Seed, ObserveSorts: sorts,
	})
	if err != nil {
		s.writeConformEngineError(w, err)
		return
	}

	cs := s.conf
	cs.mu.Lock()
	cs.purge(time.Now())
	if len(cs.sessions) >= maxConformSessions {
		cs.mu.Unlock()
		cs.rejected.Add(1)
		writeJSON(w, http.StatusTooManyRequests,
			ErrorResponse{Error: fmt.Sprintf("conformance session limit (%d) reached; retry later", maxConformSessions)})
		return
	}
	id := fmt.Sprintf("cs-%d", cs.nextID.Add(1))
	c := &conformSession{
		sess:    conform.NewSession(plan),
		spec:    sp.Name,
		version: ver.ID,
	}
	c.expires.Store(time.Now().Add(conformSessionTTL).UnixNano())
	cs.sessions[id] = c
	cs.mu.Unlock()
	cs.opened.Add(1)
	cs.programs.Add(int64(len(plan.Programs)))

	resp := &conform.Response{
		Session: id, Spec: sp.Name, Version: ver.ID,
		Round: c.sess.Round(), Skipped: plan.Skipped, Capped: plan.Capped,
	}
	for _, p := range plan.Programs {
		resp.Programs = append(resp.Programs, conform.Msg(p))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) conformObserve(w http.ResponseWriter, r *http.Request, req *conform.Request) {
	c, ok := s.lookupConform(req.Session)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			ErrorResponse{Error: fmt.Sprintf("unknown or expired session %q", req.Session)})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Round == c.lastRound && c.lastResp != nil {
		// Idempotent retry of a round already judged: replay the answer.
		writeJSON(w, http.StatusOK, c.lastResp)
		return
	}
	if req.Round != c.sess.Round() || c.sess.Done() {
		writeJSON(w, http.StatusConflict,
			ErrorResponse{Error: fmt.Sprintf("session %s expects round %d observations (got round %d)", req.Session, c.sess.Round(), req.Round)})
		return
	}

	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	ver, ok := s.reg.Resolve(c.version)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "session version vanished from the registry"})
		return
	}
	norm, err := s.conformNormalizer(ctx, ver, c.spec)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}

	done, next, err := c.sess.Observe(req.Observations, norm)
	if err != nil {
		// The session state is untouched on any Observe error: a protocol
		// slip is the client's to fix, an engine fault is retryable with
		// the same round verbatim.
		var pe *conform.ProtocolError
		if errors.As(err, &pe) {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: pe.Error()})
			return
		}
		s.writeConformEngineError(w, err)
		return
	}

	resp := &conform.Response{Session: req.Session, Spec: c.spec, Version: c.version}
	if done {
		v := c.sess.Verdict()
		resp.Done = true
		resp.Pass = v.Pass
		resp.Checked = v.Checked
		resp.FailureCount = v.FailureCount
		resp.ShrinkSteps = v.ShrinkSteps
		for i := range v.Failures {
			resp.Failures = append(resp.Failures, *conform.FailureMsgOf(&v.Failures[i]))
		}
		resp.Counterexample = conform.FailureMsgOf(v.Counterexample)
		if v.Pass {
			s.conf.pass.Add(1)
		} else {
			s.conf.fail.Add(1)
		}
	} else {
		resp.Round = c.sess.Round()
		for _, p := range next {
			resp.Programs = append(resp.Programs, conform.Msg(p))
		}
		s.conf.programs.Add(int64(len(next)))
	}
	c.lastRound = req.Round
	c.lastResp = resp
	c.expires.Store(time.Now().Add(conformSessionTTL).UnixNano())
	writeJSON(w, http.StatusOK, resp)
}

// conformClose is idempotent: closing an unknown (or already-closed)
// session succeeds, so a client retrying a lost close never errors out.
func (s *Server) conformClose(w http.ResponseWriter, req *conform.Request) {
	cs := s.conf
	cs.mu.Lock()
	delete(cs.sessions, req.Session)
	cs.mu.Unlock()
	writeJSON(w, http.StatusOK, &conform.Response{Session: req.Session, Closed: true})
}

func (s *Server) lookupConform(id string) (*conformSession, bool) {
	cs := s.conf
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.purge(time.Now())
	c, ok := cs.sessions[id]
	return c, ok
}

// writeConformEngineError maps engine failures during planning or
// judging to the endpoint's fault contract: fuel exhaustion is 422,
// deadline/cancellation is 504 — the same codes /v1/normalize answers,
// so clients and the loadgen books treat all engine faults uniformly.
func (s *Server) writeConformEngineError(w http.ResponseWriter, err error) {
	var fuelErr *rewrite.ErrFuel
	switch {
	case errors.As(err, &fuelErr):
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error(), Steps: fuelErr.Steps})
	case errors.Is(err, rewrite.ErrCanceled):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "conformance round exceeded the request deadline"})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}
