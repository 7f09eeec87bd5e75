package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"algspec/internal/cluster"
	"algspec/internal/registry"
	"algspec/internal/serve"
	"algspec/internal/speclib"
)

// request is one distinct HTTP request of a stream with its oracle.
// Streams hold tens of thousands of them, so the body shares the wire
// bytes.
type request struct {
	Path   string
	Wire   []byte // the whole HTTP/1.1 request
	Body   []byte // its JSON body, a suffix of Wire
	Status int    // expected status
	// NF is the expected normal form of a normalize request, and nfField
	// that field as the server's indented encoder writes it.
	NF      string
	nfField []byte
	// Version is the expected version id of an upload; "" accepts any
	// well-formed id (a fresh upload's id is not computed in advance).
	Version string
}

func newRequest(path string, body []byte, status int) request {
	wire := wireRequest("POST", path, body)
	return request{Path: path, Wire: wire, Body: wire[len(wire)-len(body):], Status: status}
}

func (r *request) normalize() bool { return r.Path == "/v1/normalize" }

func normalizeRequest(nr serve.NormalizeRequest, nf string) request {
	body, err := json.Marshal(nr)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	quoted, err := json.Marshal(nf)
	if err != nil {
		panic(err)
	}
	r := newRequest("/v1/normalize", body, 200)
	r.NF, r.nfField = nf, append([]byte(`"normal_form": `), quoted...)
	return r
}

func uploadRequest(src string, status int, version string) request {
	body, err := json.Marshal(serve.SpecUploadRequest{Source: src})
	if err != nil {
		panic(err)
	}
	r := newRequest("/v1/specs", body, status)
	r.Version = version
	return r
}

func genRequest(t genTerm, version string) request {
	return normalizeRequest(serve.NormalizeRequest{Spec: t.Spec, Version: version, Term: t.Term,
		Strategy: t.Strategy, Trace: t.Trace}, t.NF)
}

// check compares a response with the request's oracle.
func (r *request) check(status int, body []byte) error {
	if status != r.Status {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", r.Path, r.Body, status, r.Status, body)
	}
	if !r.normalize() {
		var up serve.SpecUploadResponse
		if err := json.Unmarshal(body, &up); err != nil {
			return fmt.Errorf("upload: %v", err)
		}
		okID := strings.HasPrefix(up.Version, "sha256:") && len(up.Version) == 71
		if up.Created != (r.Status == 201) || !okID || (r.Version != "" && up.Version != r.Version) {
			return fmt.Errorf("upload: got version %q created %v, want %q", up.Version, up.Created, r.Version)
		}
		return nil
	}
	if bytes.Contains(body, r.nfField) {
		return nil // terms hold no '"', so only the field itself can match
	}
	var nr struct {
		NormalForm string `json:"normal_form"`
	}
	if err := json.Unmarshal(body, &nr); err != nil {
		return fmt.Errorf("normalize %s: %v", r.Body, err)
	}
	if nr.NormalForm != r.NF {
		return fmt.Errorf("normalize %s: normal form %q, oracle %q", r.Body, nr.NormalForm, r.NF)
	}
	return nil
}

// stream is a workload's prepared requests: distinct requests with
// their oracles, and per phase the order they are sent in.
type stream struct {
	reqs   []request
	open   []int32
	closed []int32
	// sample is replayed in-process, one layer call at a time, by the
	// traced run.
	sample []int32
	// setup is sent once after boot, before any phase.
	setup []request
	// variants are fresh spec sources for the registry and upload
	// probes of the traced run.
	variants []string
}

// sampleSize is how many requests the traced run replays in-process.
const sampleSize = 400

// libSpecs is the set of embedded library spec names.
func libSpecs() map[string]bool {
	out := map[string]bool{}
	for _, n := range speclib.Names {
		out[n] = true
	}
	return out
}

// variantSource renames the library's Queue so it can be uploaded as a
// new spec; the FIFO model still predicts its normal forms.
func variantSource(name string) string { return strings.ReplaceAll(speclib.Queue, "Queue", name) }

// seedTag spells a seed as an identifier fragment.
func seedTag(seed int64) string { return strconv.FormatUint(uint64(seed), 36) }

func probeVariants(seed int64) []string {
	var out []string
	for k := 0; k < 5; k++ {
		out = append(out, variantSource(fmt.Sprintf("QV%sp%d", seedTag(seed), k)))
	}
	return out
}

// hotStream draws from the 92 golden-battery terms of the embedded
// library, each under both strategies: 184 keys against a 65,536-entry
// cache that boot has warmed, so nearly every request is a cache hit.
// The committed golden files are the oracle.
func hotStream(seed int64, nOpen, nClosed int) (*stream, error) {
	golden, err := loadGolden("specs/golden", libSpecs())
	if err != nil {
		return nil, err
	}
	st := &stream{variants: probeVariants(seed)}
	for _, g := range golden {
		for _, strat := range []string{"", "outermost"} {
			st.reqs = append(st.reqs, normalizeRequest(serve.NormalizeRequest{Spec: g.Spec, Term: g.Term, Strategy: strat}, g.NF))
		}
	}
	r := rand.New(rand.NewSource(seed))
	draw := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(r.Intn(len(st.reqs)))
		}
		return out
	}
	st.open, st.closed, st.sample = draw(nOpen), draw(nClosed), draw(sampleSize)
	return st, nil
}

// coldStream sends every request once: fresh seeded terms in the
// open-loop phase, fresh ones again in the closed-loop phase, and fresh
// ones for the in-process replay, so every request misses both caches.
func coldStream(seed int64, nOpen, nClosed int) (*stream, error) {
	g := newTermGen(seed)
	seen := map[string]bool{}
	st := &stream{variants: probeVariants(seed)}
	phase := func(n int) []int32 {
		out := make([]int32, n)
		for i, t := range g.freshTerms(n, seen) {
			out[i] = int32(len(st.reqs))
			st.reqs = append(st.reqs, genRequest(t, ""))
		}
		return out
	}
	st.open, st.closed, st.sample = phase(nOpen), phase(nClosed), phase(sampleSize)
	return st, nil
}

// Cluster workload shape.
const (
	clusterReplicas = 2
	clusterCache    = 2048 // entries per replica; the key population is 3× this
	setupVariants   = 4
	pinnedPerSpec   = 16
)

// clusterStream draws keys from a Zipf distribution (s = 1.1) over a
// population of 3× one replica's cache, so popular keys repeat and the
// tail evicts. Every 200th request uploads a spec through the router:
// one upload in four is a fresh seeded variant (201, compiled by every
// replica), the others re-upload a set-up variant (200). The counts are
// exact because each fresh version holds a compiled environment per
// process, which live_heap_mb counts; fresh uploads are kept to 1 in
// 800 requests because the requests that wait behind one form the
// latency tail, and at 1 in 400 that tail sat right at the 99th
// percentile. About 1 normalize in 20 is pinned to a set-up variant's
// version.
func clusterStream(seed int64, nOpen, nClosed int) (*stream, error) {
	g := newTermGen(seed)
	pop := g.freshTerms(3*clusterCache, map[string]bool{})
	st := &stream{variants: probeVariants(seed)}
	for _, t := range pop {
		t.Trace = false
		st.reqs = append(st.reqs, genRequest(t, ""))
	}
	// The set-up variants' version ids come from a private registry:
	// the served cluster must agree with it.
	reg, err := registry.New(speclib.Sources)
	if err != nil {
		return nil, err
	}
	var reuploads, pinned []int32
	tag := seedTag(seed)
	for k := 0; k < setupVariants; k++ {
		name := fmt.Sprintf("QV%ss%d", tag, k)
		src := variantSource(name)
		v, _, err := reg.Register(src)
		if err != nil {
			return nil, err
		}
		st.setup = append(st.setup, uploadRequest(src, 201, v.ID))
		reuploads = append(reuploads, int32(len(st.reqs)))
		st.reqs = append(st.reqs, uploadRequest(src, 200, v.ID))
		for j := 0; j < pinnedPerSpec; j++ {
			pinned = append(pinned, int32(len(st.reqs)))
			st.reqs = append(st.reqs, genRequest(g.queue(name, 8+g.r.Intn(17)), v.ID))
		}
	}
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(pop)-1))
	sent := 0 // uploads drawn so far
	draw := func(n int, uploads bool) []int32 {
		out := make([]int32, n)
		for i := range out {
			switch u := r.Intn(20); {
			case uploads && i%200 == 199 && sent%4 == 0:
				src := variantSource(fmt.Sprintf("QV%sf%d", tag, sent))
				out[i] = int32(len(st.reqs))
				st.reqs = append(st.reqs, uploadRequest(src, 201, ""))
				sent++
			case uploads && i%200 == 199:
				out[i] = reuploads[r.Intn(len(reuploads))]
				sent++
			case u == 0:
				out[i] = pinned[r.Intn(len(pinned))]
			default:
				out[i] = int32(zipf.Uint64())
			}
		}
		return out
	}
	st.open, st.closed, st.sample = draw(nOpen, true), draw(nClosed, true), draw(sampleSize, false)
	return st, nil
}

// serveBench drives a single server or a router over replicas.
type serveBench struct {
	st       *stream
	cfg      serve.Config
	replicas int // 0: one server, no router

	srv   *serve.Server
	ts    *httptest.Server
	cl    *cluster.Local
	url   string
	conns []*conn
	// before holds the counters scraped when the phases began.
	before map[string]float64
}

func newHot(seed int64, nOpen, nClosed int) (bench, error) {
	st, err := hotStream(seed, nOpen, nClosed)
	return &serveBench{st: st, cfg: serve.Config{Warm: true, Timeout: serveTimeout}}, err
}

func newCold(seed int64, nOpen, nClosed int) (bench, error) {
	st, err := coldStream(seed, nOpen, nClosed)
	return &serveBench{st: st, cfg: serve.Config{Timeout: serveTimeout}}, err
}

func newCluster(seed int64, nOpen, nClosed int) (bench, error) {
	st, err := clusterStream(seed, nOpen, nClosed)
	return &serveBench{st: st, cfg: serve.Config{CacheSize: clusterCache, Timeout: serveTimeout},
		replicas: clusterReplicas}, err
}

// serveTimeout is adt serve's default per-request deadline.
const serveTimeout = 10 * time.Second

func (b *serveBench) boot() error {
	if b.replicas > 0 {
		cl, err := cluster.StartLocal(b.replicas, b.cfg, cluster.Config{})
		if err != nil {
			return err
		}
		b.cl, b.url = cl, cl.URL()
	} else {
		srv, err := serve.New(b.cfg)
		if err != nil {
			return err
		}
		b.srv, b.ts = srv, httptest.NewServer(srv.Handler())
		b.url = b.ts.URL
	}
	status, body, err := get(b.url, "/healthz")
	if err == nil && status != 200 {
		err = fmt.Errorf("/healthz: status %d: %s", status, body)
	}
	return err
}

func (b *serveBench) stop() {
	for _, c := range b.conns {
		c.close()
	}
	b.conns = nil
	if b.cl != nil {
		b.cl.Close()
		b.cl = nil
	}
	if b.ts != nil {
		b.ts.Close()
		b.srv.Close()
		b.ts, b.srv = nil, nil
	}
}

func (b *serveBench) start() (int, error) {
	for w := 0; w < senders; w++ {
		c, err := dial(b.url)
		if err != nil {
			return 0, err
		}
		b.conns = append(b.conns, c)
	}
	for i := range b.st.setup {
		status, body, err := b.conns[0].roundTrip(b.st.setup[i].Wire)
		if err == nil {
			err = b.st.setup[i].check(status, body)
		}
		if err != nil {
			return 0, fmt.Errorf("set-up upload: %w", err)
		}
	}
	var err error
	b.before, err = b.scrape()
	return len(b.st.setup), err
}

// send runs request ri on sender w and checks the answer; traced, it
// records a span around the round trip.
func (b *serveBench) send(w int, ri int32, tr *tracer) error {
	req := &b.st.reqs[ri]
	var start int64
	if tr != nil {
		start = tr.now()
	}
	status, body, err := b.conns[w].roundTrip(req.Wire)
	if tr != nil {
		tr.record(span{ID: tr.id(), Req: ri, Name: "client " + req.Path, Start: start, End: tr.now()})
	}
	if err != nil {
		return err
	}
	return req.check(status, body)
}

func (b *serveBench) open(w, i int, tr *tracer) error { return b.send(w, b.st.open[i], tr) }

func (b *serveBench) pass(lo, hi int) ([]float64, int) {
	ops := b.st.closed[lo:hi]
	ph := newPhase(len(ops))
	closedLoop(ph, senders, func(w, i int) error { return b.send(w, ops[i], nil) })
	return ph.latencies(), ph.failed
}

// scrape reads /metrics from every process of the system and sums each
// series over them.
func (b *serveBench) scrape() (map[string]float64, error) {
	urls := []string{b.url}
	if b.cl != nil {
		for _, ts := range b.cl.ReplicaSrvs {
			urls = append(urls, ts.URL)
		}
	}
	out := map[string]float64{}
	for _, u := range urls {
		if err := scrapeInto(u, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scrapeInto adds each series of one /metrics page, keyed by name and
// labels, to out.
func scrapeInto(base string, out map[string]float64) error {
	status, body, err := get(base, "/metrics")
	if err == nil && status != 200 {
		err = fmt.Errorf("GET %s/metrics: status %d", base, status)
	}
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || line[0] == '#' {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return sc.Err()
}
