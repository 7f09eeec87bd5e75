package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"time"

	"algspec/internal/cluster"
	"algspec/internal/registry"
	"algspec/internal/rewrite"
	"algspec/internal/serve"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianNs(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

// ledger sets the serve-side rows, then the checker rows from one traced
// pass on a freshly loaded library: the checkers are not on a serve
// workload's path, so those rows are a reference.
func (b *serveBench) ledger(m ledger, tr *tracer) (int, int, error) {
	checked, failed, err := b.serveRows(m, tr)
	if err != nil {
		return 0, 0, err
	}
	c, f, err := referencePass(m, tr)
	return checked + c, failed + f, err
}

// serveRows derives the serve, registry, core, term, rewrite and cluster
// rows from the phases the traced run just made and from in-process
// replays of the workload's sample.
func (b *serveBench) serveRows(m ledger, tr *tracer) (int, int, error) {
	after, err := b.scrape()
	if err != nil {
		return 0, 0, err
	}
	d := func(name string) float64 { return after[name] - b.before[name] }
	normalizes := 0
	for _, ri := range b.st.open {
		if b.st.reqs[ri].normalize() {
			normalizes++
		}
	}
	hits, misses := d("adt_cache_hits_total"), d("adt_cache_misses_total")
	pHits, pMisses := d("adt_parse_cache_hits_total"), d("adt_parse_cache_misses_total")
	compiled, interp := d("adt_engine_compiled_evals_total"), d("adt_engine_interp_evals_total")
	m.set("serve.nf_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("serve.nf_cache_lookups", hits+misses, "count")
	m.set("serve.parse_cache_hit_ratio", ratio(pHits, pHits+pMisses), "ratio")
	m.set("serve.parse_cache_lookups", pHits+pMisses, "count")
	m.set("rewrite.steps_per_req", ratio(d("adt_engine_steps_total"), compiled+interp), "steps")
	m.set("rewrite.compiled_share", ratio(compiled, compiled+interp), "ratio")
	m.set("rewrite.evals", compiled+interp, "count")
	m.set("term.interned_per_req", ratio(d("adt_interned_terms"), float64(normalizes)), "terms")

	checked, failed, err := b.replay(m, tr)
	if err != nil {
		return 0, 0, err
	}
	c, f, err := b.probeCluster(m)
	if err != nil {
		return 0, 0, err
	}
	return checked + c, failed + f, nil
}

// bootRegistry times registry.New over the library and the completion
// of every base spec's certificate on the fresh registry, three times,
// and returns the last registry.
func bootRegistry(m ledger) (*registry.Registry, error) {
	var boot, certify []int64
	var reg *registry.Registry
	for k := 0; k < 3; k++ {
		runtime.GC()
		t0 := time.Now()
		r, err := registry.New(speclib.Sources)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		for _, name := range r.Base().Specs {
			r.Base().Certificate(name)
		}
		boot, certify = append(boot, int64(t1.Sub(t0))), append(certify, int64(time.Since(t1)))
		reg = r
	}
	m.set("registry.boot_ms", medianNs(boot)/1e6, "ms")
	m.set("registry.certify_ms", medianNs(certify)/1e6, "ms")
	return reg, nil
}

// replay runs the sample in process. Each request is served once by the
// workload's own handler (ServeHTTP, the reference span) and then
// replayed on a private registry through the public call of each stage
// the handler runs, in the handler's order: decode, Registry.Resolve,
// Env.ParseTerm, Interner.Canon, Fork(..).Normalize, encode. When the
// handler answered from its caches, its parse, canon and normalize
// stages did not run, so they are left out of its unattributed time —
// but still timed, so the engine rows cover every workload.
func (b *serveBench) replay(m ledger, tr *tracer) (int, int, error) {
	reg, err := bootRegistry(m)
	if err != nil {
		return 0, 0, err
	}
	for _, up := range b.st.setup {
		var sr serve.SpecUploadRequest
		if err := json.Unmarshal(up.Body, &sr); err != nil {
			return 0, 0, err
		}
		if _, _, err := reg.Register(sr.Source); err != nil {
			return 0, 0, err
		}
	}
	var register []int64
	for _, src := range b.st.variants {
		t0 := time.Now()
		if _, _, err := reg.Register(src); err != nil {
			return 0, 0, err
		}
		register = append(register, int64(time.Since(t0)))
	}
	m.set("registry.register_ms", medianNs(register)/1e6, "ms")

	h := b.handler()
	var handler, decode, resolve, parse, canon, encode, unattributed []int64
	normalize := map[string][]int64{}
	steps := map[string]int{}
	var allocs uint64
	checked, failed := 0, 0
	var ms0, ms1 runtime.MemStats
	for _, ri := range b.st.sample {
		req := &b.st.reqs[ri]
		root := tr.id()
		rootStart := tr.now()

		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest("POST", req.Path, bytes.NewReader(req.Body))
		hreq.Header.Set("Content-Type", "application/json")
		runtime.ReadMemStats(&ms0)
		dh := tr.timed("serve.ServeHTTP", root, ri, func() { h.ServeHTTP(rec, hreq) })
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		handler = append(handler, dh)
		checked++
		if err := req.check(rec.Code, rec.Body.Bytes()); err != nil {
			failed++
			reportFailure(int(ri), err)
			continue
		}
		var served struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
			return 0, 0, err
		}

		rp := tr.id()
		rpStart := tr.now()
		var nr serve.NormalizeRequest
		var ver *registry.Version
		var t, c, nf *term.Term
		var sys *rewrite.System
		var trace []serve.TraceStep
		var errs [3]error
		ok := false
		dd := tr.timed("serve.decode", rp, ri, func() { errs[0] = json.NewDecoder(bytes.NewReader(req.Body)).Decode(&nr) })
		dr := tr.timed("registry.Resolve", rp, ri, func() { ver, ok = reg.Resolve(nr.Version) })
		if errs[0] != nil || !ok {
			return 0, 0, fmt.Errorf("replay of %s: decode %v, version found %v", req.Body, errs[0], ok)
		}
		if sys, errs[0] = ver.Env.System(nr.Spec); errs[0] != nil {
			return 0, 0, errs[0]
		}
		dp := tr.timed("core.ParseTerm", rp, ri, func() { t, errs[1] = ver.Env.ParseTerm(nr.Spec, nr.Term) })
		if errs[1] != nil {
			return 0, 0, errs[1]
		}
		dc := tr.timed("term.Canon", rp, ri, func() { c = sys.Interner().Canon(t) })
		opts := []rewrite.Option{rewrite.WithMaxSteps(1 << 20)}
		if nr.Strategy == "outermost" {
			opts = append(opts, rewrite.WithStrategy(rewrite.Outermost))
		}
		if nr.Trace {
			opts = append(opts, rewrite.WithTrace(func(ts rewrite.TraceStep) {
				trace = append(trace, serve.TraceStep{Rule: ts.Rule.Label, Before: ts.Before.String(), After: ts.After.String()})
			}))
		}
		f := sys.Fork(opts...)
		dn := tr.timed("rewrite.Normalize", rp, ri, func() { nf, errs[2] = f.Normalize(c) })
		checked++
		if errs[2] != nil || nf.String() != req.NF {
			failed++
			reportFailure(int(ri), fmt.Errorf("replay %s: normal form %v (%v), oracle %s", req.Body, nf, errs[2], req.NF))
			continue
		}
		var buf bytes.Buffer
		de := tr.timed("serve.encode", rp, ri, func() {
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			errs[0] = enc.Encode(&serve.NormalizeResponse{Spec: nr.Spec, Version: nr.Version, Input: c.String(),
				NormalForm: nf.String(), Steps: f.Stats().Steps, Cached: served.Cached, Trace: trace})
		})
		if errs[0] != nil {
			return 0, 0, errs[0]
		}
		end := tr.now()
		tr.record(span{ID: rp, Parent: root, Req: ri, Name: "replay", Start: rpStart, End: end})
		tr.record(span{ID: root, Req: ri, Name: "sample", Start: rootStart, End: end})

		decode, resolve, parse, canon, encode = append(decode, dd), append(resolve, dr), append(parse, dp), append(canon, dc), append(encode, de)
		tier := f.Tier()
		normalize[tier] = append(normalize[tier], dn)
		steps[tier] += f.Stats().Steps
		stages := dd + dr + de
		if !served.Cached {
			stages += dp + dc + dn
		}
		unattributed = append(unattributed, dh-stages)
	}
	n := float64(len(handler))
	m.set("serve.handler_us", medianNs(handler)/1e3, "us")
	m.set("serve.decode_us", medianNs(decode)/1e3, "us")
	m.set("serve.encode_us", medianNs(encode)/1e3, "us")
	m.set("serve.unattributed_us", medianNs(unattributed)/1e3, "us")
	m.set("serve.allocs_per_req", ratio(float64(allocs), n), "allocs")
	m.set("registry.resolve_us", medianNs(resolve)/1e3, "us")
	m.set("core.parse_us", medianNs(parse)/1e3, "us")
	m.set("term.canon_us", medianNs(canon)/1e3, "us")
	for _, tier := range []string{"compiled", "interp"} {
		var total int64
		for _, x := range normalize[tier] {
			total += x
		}
		v := 0.0
		if len(normalize[tier]) > 0 {
			v = medianNs(normalize[tier]) / 1e3
		}
		m.set("rewrite."+tier+"_us", v, "us")
		m.set("rewrite.ns_per_step."+tier, ratio(float64(total), float64(steps[tier])), "ns")
	}
	fmt.Printf("replayed %d requests in process: %d normalized on the compiled tier, %d on the interpreter\n",
		len(handler), len(normalize["compiled"]), len(normalize["interp"]))

	// Transport: a warm round trip over loopback against the same
	// request served in process, interleaved so both see the same
	// machine.
	direct := b.directURL()
	c, err := dial(direct)
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	var rts, hs []int64
	for round := 0; round < 3; round++ {
		for _, ri := range b.st.sample[:100] {
			req := &b.st.reqs[ri]
			t0 := time.Now()
			status, body, err := c.roundTrip(req.Wire)
			rts = append(rts, int64(time.Since(t0)))
			checked++
			if err == nil {
				err = req.check(status, body)
			}
			if err != nil {
				failed++
				reportFailure(int(ri), err)
			}
			rec := httptest.NewRecorder()
			hreq := httptest.NewRequest("POST", req.Path, bytes.NewReader(req.Body))
			hreq.Header.Set("Content-Type", "application/json")
			t0 = time.Now()
			h.ServeHTTP(rec, hreq)
			hs = append(hs, int64(time.Since(t0)))
		}
	}
	m.set("serve.roundtrip_us", medianNs(rts)/1e3, "us")
	m.set("serve.transport_us", (medianNs(rts)-medianNs(hs))/1e3, "us")
	return checked, failed, nil
}

// handler is the in-process handler the replay serves from: the server,
// or the first replica of a cluster.
func (b *serveBench) handler() http.Handler {
	if b.cl != nil {
		return b.cl.Replicas[0].Handler()
	}
	return b.srv.Handler()
}

func (b *serveBench) directURL() string {
	if b.cl != nil {
		return b.cl.ReplicaSrvs[0].URL
	}
	return b.url
}

var forwardedRe = regexp.MustCompile(`^adt_router_forwarded_total\{shard="(\d+)"\}$`)

// probeCluster measures the router: the hop it adds to a warm request,
// the round trip of a fresh upload, and from its counters the shard
// skew and retry ratio. A single-server workload gets a router of one
// shard put in front of its server for the probe.
func (b *serveBench) probeCluster(m ledger) (int, int, error) {
	routerURL := b.url
	if b.cl == nil {
		rt, err := cluster.NewRouter(cluster.Config{ReplicaURLs: []string{b.url}})
		if err != nil {
			return 0, 0, err
		}
		ts := httptest.NewServer(rt.Handler())
		defer rt.Close()
		defer ts.Close()
		routerURL = ts.URL
	}
	rc, err := dial(routerURL)
	if err != nil {
		return 0, 0, err
	}
	defer rc.close()
	dc, err := dial(b.directURL())
	if err != nil {
		return 0, 0, err
	}
	defer dc.close()
	checked, failed := 0, 0
	call := func(c *conn, req *request) int64 {
		t0 := time.Now()
		status, body, err := c.roundTrip(req.Wire)
		d := int64(time.Since(t0))
		checked++
		if err == nil {
			err = req.check(status, body)
		}
		if err != nil {
			failed++
			reportFailure(-1, err)
		}
		return d
	}
	// The first two calls leave the request warm both on the replica
	// that owns it and on the one the direct connection reaches, so
	// the difference is the router's hop and not a cache miss.
	var hops []int64
	for _, ri := range b.st.sample[:100] {
		req := &b.st.reqs[ri]
		call(rc, req)
		call(dc, req)
		for round := 0; round < 3; round++ {
			hops = append(hops, call(rc, req)-call(dc, req))
		}
	}
	m.set("cluster.hop_us", medianNs(hops)/1e3, "us")

	var uploads []int64
	for _, src := range b.st.variants {
		req := uploadRequest(src, 201, "")
		uploads = append(uploads, call(rc, &req))
	}
	m.set("cluster.upload_ms", medianNs(uploads)/1e6, "ms")

	series := map[string]float64{}
	if err := scrapeInto(routerURL, series); err != nil {
		return 0, 0, err
	}
	var fwd []float64
	for name, v := range series {
		if forwardedRe.MatchString(name) {
			fwd = append(fwd, v)
		}
	}
	retries := series["adt_router_retries_total"]
	var sum, top float64
	for _, v := range fwd {
		sum += v
		top = max(top, v)
	}
	m.set("cluster.shard_skew", ratio(top, sum/float64(len(fwd))), "ratio")
	m.set("cluster.retry_ratio", ratio(retries, sum), "ratio")
	m.set("cluster.forwards", sum, "count")
	return checked, failed, nil
}
