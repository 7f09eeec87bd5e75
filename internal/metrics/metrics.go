// Package metrics is the one module that knows the Prometheus text
// format behind GET /metrics. A server declares each metric family once
// on a Registry, next to whatever owns its value, and the Registry
// writes the page in declaration order. Every reader of a page — the
// load harness and the cluster reconciling a server's books, runpack
// verification re-checking a recorded snapshot, and the tests — goes
// through Parse.
package metrics

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a counter or gauge family's TYPE.
type Kind string

const (
	Counter Kind = "counter"
	Gauge   Kind = "gauge"
)

// Emit writes one sample of a family: its value and its labels as name,
// value pairs.
type Emit func(value int64, labels ...string)

// Registry is an ordered list of metric families, served as a page by
// ServeHTTP. Declare every family before the first write; writes may
// then run concurrently with the updates the families read.
type Registry struct {
	fams []family
}

type family struct {
	name, help string // help is one line
	kind       Kind
	write      func(p *page)
}

// Counter declares an unlabeled counter read at each write.
func (r *Registry) Counter(name, help string, value func() int64) {
	r.Vec(name, help, Counter, func(emit Emit) { emit(value()) })
}

// Gauge declares an unlabeled gauge read at each write.
func (r *Registry) Gauge(name, help string, value func() int64) {
	r.Vec(name, help, Gauge, func(emit Emit) { emit(value()) })
}

// Vec declares a labeled counter or gauge family: each write calls
// each, which emits the family's samples.
func (r *Registry) Vec(name, help string, kind Kind, each func(Emit)) {
	r.fams = append(r.fams, family{name, help, kind, func(p *page) {
		each(func(v int64, labels ...string) { p.int(name, labels, v) })
	}})
}

// RequestCounts declares b's per-(endpoint, code) counter family.
func (r *Registry) RequestCounts(name, help string, b *Requests) {
	r.fams = append(r.fams, family{name, help, Counter, func(p *page) { b.writeCounts(p, name) }})
}

// RequestLatency declares b's per-endpoint latency histogram family.
func (r *Registry) RequestLatency(name, help string, b *Requests) {
	r.fams = append(r.fams, family{name, help, "histogram", func(p *page) { b.writeLatency(p, name) }})
}

// Render writes the page: each family's HELP and TYPE lines, then its
// samples, in declaration order.
func (r *Registry) Render() []byte {
	p := &page{}
	for _, f := range r.fams {
		p.buf = fmt.Appendf(p.buf, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.write(p)
	}
	return p.buf
}

// ServeHTTP answers GET /metrics. The page is rendered in memory first,
// so no lock a family takes is held while a slow client reads.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(r.Render())
}

type page struct{ buf []byte }

// sample writes one sample line. Label values are Go-quoted, which for
// the names and numbers this system labels with is the format's own
// quoting.
func (p *page) sample(name string, labels []string, value string) {
	p.buf = append(p.buf, name...)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		p.buf = append(append(append(p.buf, sep), labels[i]...), '=')
		p.buf = strconv.AppendQuote(p.buf, labels[i+1])
	}
	if len(labels) > 0 {
		p.buf = append(p.buf, '}')
	}
	p.buf = append(append(append(p.buf, ' '), value...), '\n')
}

func (p *page) int(name string, labels []string, v int64) {
	p.sample(name, labels, strconv.FormatInt(v, 10))
}

// latencyBuckets are the latency histogram's upper bounds in seconds.
// The low end resolves a warm cache hit (tens of microseconds); the
// high end covers a normalization that rides its full default fuel.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Requests is a server's request book: a count per (endpoint, HTTP
// status code) and, for requests booked with Observe, a latency
// histogram per endpoint. One mutex guards both, so booking a request
// takes one lock and, once its endpoint and code have been seen,
// allocates nothing; the counts are exact, which is what lets clients
// reconcile their attempts against them. The zero value is ready.
type Requests struct {
	mu    sync.Mutex
	count map[requestKey]int64
	hist  map[string]*histogram
}

type requestKey struct {
	endpoint string
	code     int
}

type histogram struct {
	counts [len(latencyBuckets) + 1]int64 // last slot is +Inf
	sum    float64
	total  int64
}

// Count books one request answered with code.
func (b *Requests) Count(endpoint string, code int) {
	b.mu.Lock()
	b.countLocked(endpoint, code)
	b.mu.Unlock()
}

// Observe books one request answered with code after the given
// wall-clock seconds, in its count and in the endpoint's histogram.
func (b *Requests) Observe(endpoint string, code int, seconds float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.countLocked(endpoint, code)
	h := b.hist[endpoint]
	if h == nil {
		h = &histogram{}
		b.hist[endpoint] = h
	}
	h.counts[sort.SearchFloat64s(latencyBuckets[:], seconds)]++
	h.sum += seconds
	h.total++
}

func (b *Requests) countLocked(endpoint string, code int) {
	if b.count == nil {
		b.count, b.hist = make(map[requestKey]int64), make(map[string]*histogram)
	}
	b.count[requestKey{endpoint, code}]++
}

func (b *Requests) writeCounts(p *page, name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]requestKey, 0, len(b.count))
	for k := range b.count {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		p.int(name, []string{"endpoint", k.endpoint, "code", strconv.Itoa(k.code)}, b.count[k])
	}
}

func (b *Requests) writeLatency(p *page, name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	eps := make([]string, 0, len(b.hist))
	for ep := range b.hist {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		h, cum := b.hist[ep], int64(0)
		for i, c := range h.counts {
			le := "+Inf"
			if i < len(latencyBuckets) {
				le = strconv.FormatFloat(latencyBuckets[i], 'g', -1, 64)
			}
			cum += c
			p.int(name+"_bucket", []string{"endpoint", ep, "le", le}, cum)
		}
		p.sample(name+"_sum", []string{"endpoint", ep}, strconv.FormatFloat(h.sum, 'g', -1, 64))
		p.int(name+"_count", []string{"endpoint", ep}, h.total)
	}
}

// Sample is one sample line of a page.
type Sample struct {
	Name   string
	Labels map[string]string // nil when the sample has none
	Value  float64
	Line   int // 1-based line number on the page
}

// Page is a parsed page: its samples in page order.
type Page []Sample

// SyntaxError reports a malformed sample line.
type SyntaxError struct {
	Line int // 1-based
	Msg  string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("metrics: line %d: %s", e.Line, e.Msg) }

// Parse reads a page. Comment lines (HELP, TYPE) and blank lines hold
// no samples; a malformed sample line is a *SyntaxError naming it.
func Parse(text string) (Page, error) {
	var out Page
	for i, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		s, msg := parseSample(line)
		if msg != "" {
			return nil, &SyntaxError{Line: i + 1, Msg: msg}
		}
		s.Line = i + 1
		out = append(out, s)
	}
	return out, nil
}

// parseSample reads `name{label="value",...} value`, the label set
// optional; a non-empty message says what is malformed.
func parseSample(line string) (s Sample, msg string) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return s, fmt.Sprintf("sample %q has no value", line)
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return s, fmt.Sprintf("value %q is not a number", line[sp+1:])
	}
	name, labels, hasLabels := strings.Cut(line[:sp], "{")
	if !isName(name, true) {
		return s, fmt.Sprintf("%q is not a metric name", name)
	}
	s.Name, s.Value = name, v
	rest, ok := strings.CutSuffix(labels, "}")
	for hasLabels && ok && rest != "" {
		lname, quoted, found := strings.Cut(rest, "=")
		q, err := strconv.QuotedPrefix(quoted)
		if _, dup := s.Labels[lname]; !found || !isName(lname, false) || dup || err != nil || q[0] != '"' {
			ok = false
			break
		}
		if s.Labels == nil {
			s.Labels = map[string]string{}
		}
		s.Labels[lname], _ = strconv.Unquote(q)
		if rest = quoted[len(q):]; rest != "" {
			rest, ok = strings.CutPrefix(rest, ",")
		}
	}
	if hasLabels && !ok {
		return s, fmt.Sprintf("malformed label set in %q", line[:sp])
	}
	return s, ""
}

// isName reports whether s is a metric name (colons allowed) or a label
// name.
func isName(s string, metric bool) bool {
	for i, c := range []byte(s) {
		if !(c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || metric && c == ':' || i > 0 && '0' <= c && c <= '9') {
			return false
		}
	}
	return s != ""
}

// Samples returns the samples named name, in page order.
func (p Page) Samples(name string) []Sample {
	var out []Sample
	for _, s := range p {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the value of the sample with the given name and
// exactly the given labels (nil for none).
func (p Page) Value(name string, labels map[string]string) (float64, bool) {
	for _, s := range p.Samples(name) {
		if maps.Equal(s.Labels, labels) {
			return s.Value, true
		}
	}
	return 0, false
}

// Scrape fetches the page at url with c and parses it.
func Scrape(c *http.Client, url string) (Page, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return Parse(string(body))
}
