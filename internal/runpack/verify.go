package runpack

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"algspec/internal/loadgen"
	"algspec/internal/metrics"
	"algspec/internal/speclib"
)

// Problem is one named verification failure. Line is 1-based within
// File; 0 means the problem is about the file as a whole.
type Problem struct {
	File string
	Line int
	Msg  string
}

func (p Problem) String() string {
	if p.Line > 0 {
		return fmt.Sprintf("%s:%d: %s", p.File, p.Line, p.Msg)
	}
	return fmt.Sprintf("%s: %s", p.File, p.Msg)
}

// Result is a pack as read off disk: the parsed artifacts plus every
// problem found. Regress reuses the parsed pieces so the pack is read
// (and integrity-checked) exactly once.
type Result struct {
	Dir      string
	Manifest *Manifest
	Workload []loadgen.Request
	Outcomes []loadgen.RequestOutcome
	Books    *Books
	Metrics  string
	Problems []Problem
}

// OK reports whether the pack survived with no problems.
func (r *Result) OK() bool { return len(r.Problems) == 0 }

func (r *Result) problemf(file string, line int, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{File: file, Line: line, Msg: fmt.Sprintf(format, args...)})
}

// Verify re-checks a pack from first principles: every per-line digest
// and the whole-pack footer, then the pack's internal consistency —
// the books balance and reconcile against the metrics snapshot, the
// metrics histograms are monotone, and every golden normal form
// re-normalizes byte-for-byte through the current engine. The error
// return is infrastructure only (the directory is unreadable);
// everything a verification should flag lands in Result.Problems.
func Verify(dir string) (*Result, error) {
	res, err := read(dir)
	if err != nil {
		return nil, err
	}
	if res.Manifest == nil {
		return res, nil // nothing below is meaningful without a manifest
	}
	if res.Manifest.Kind == KindLoad {
		res.checkBooks()
		res.checkGoldenNFs()
	}
	page, err := metrics.Parse(res.Metrics)
	var bad *metrics.SyntaxError
	if errors.As(err, &bad) {
		res.problemf(MetricsFile, bad.Line, "%s", bad.Msg)
		return res, nil // a page that does not parse has no books to check
	}
	res.checkMetricsMonotone(page)
	if res.Manifest.Kind == KindLoad {
		res.reconcileMetrics(page)
	}
	return res, nil
}

// Read loads and integrity-checks a pack without the semantic
// re-verification (Regress uses it: replay is its own semantic check).
func Read(dir string) (*Result, error) { return read(dir) }

// read loads the pack, checking the digest footer and parsing every
// artifact. All failures become Problems; the error return is reserved
// for an unreadable directory.
func read(dir string) (*Result, error) {
	if fi, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("runpack: %w", err)
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("runpack: %s is not a directory", dir)
	}
	res := &Result{Dir: dir}

	files := map[string]string{}
	readFile := func(name string) (string, bool) {
		if c, ok := files[name]; ok {
			return c, true
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if os.IsNotExist(err) {
				res.problemf(name, 0, "missing from pack")
			} else {
				res.problemf(name, 0, "unreadable: %v", err)
			}
			return "", false
		}
		files[name] = string(data)
		return files[name], true
	}

	// The manifest decides which files the pack is supposed to hold.
	var kind string
	if data, ok := readFile(ManifestFile); ok {
		m, err := ParseManifest([]byte(data))
		if err != nil {
			res.problemf(ManifestFile, 0, "%v", err)
		} else {
			res.Manifest = m
			kind = m.Kind
		}
	}

	// Digest check: every line of every expected file must carry the
	// recorded digest, and the footer must cover the recorded entries.
	if data, ok := readFile(DigestsFile); ok {
		res.checkDigests(data, kind, readFile)
	}

	if kind == KindLoad {
		if data, ok := readFile(WorkloadFile); ok {
			res.parseWorkload(data)
		}
		if data, ok := readFile(ResultsFile); ok {
			res.parseResults(data)
		}
		if data, ok := readFile(BooksFile); ok {
			var b Books
			if err := json.Unmarshal([]byte(data), &b); err != nil {
				res.problemf(BooksFile, 0, "does not parse: %v", err)
			} else {
				res.Books = &b
			}
		}
		readFile(ReportFile)
	}
	if data, ok := readFile(MetricsFile); ok {
		res.Metrics = data
	}
	return res, nil
}

// checkDigests verifies digests.txt itself (header, entry grammar,
// whole-pack footer) and then every recorded per-line digest against
// the named file's actual bytes. A single flipped byte anywhere in the
// pack lands here as a problem naming the file and line.
func (r *Result) checkDigests(data, kind string, readFile func(string) (string, bool)) {
	lines := contentLines(data)
	if len(lines) < 2 {
		r.problemf(DigestsFile, 0, "too short to be a digest footer (%d line(s))", len(lines))
		return
	}
	if lines[0] != digestsHeader {
		r.problemf(DigestsFile, 1, "header %q unrecognized (want %q)", lines[0], digestsHeader)
		return
	}
	footerLine := len(lines)
	entries := lines[1 : len(lines)-1]

	// Whole-pack digest over the entry lines, as Write computed it.
	whole := sha256.New()
	for _, e := range entries {
		whole.Write([]byte(e))
		whole.Write([]byte{'\n'})
	}
	wantFooter := digestsFooter + hex.EncodeToString(whole.Sum(nil))
	if lines[len(lines)-1] != wantFooter {
		r.problemf(DigestsFile, footerLine, "whole-pack digest mismatch (footer disagrees with the digest entries)")
	}

	known := map[string]bool{}
	for _, name := range packFiles(kind) {
		known[name] = true
	}
	// recorded[file] maps line number -> digest, in recorded order.
	recorded := map[string]map[int]string{}
	for i, e := range entries {
		lineNo := i + 2 // 1-based, after the header
		digest, rest, ok := strings.Cut(e, " ")
		if !ok || len(digest) != 16 {
			r.problemf(DigestsFile, lineNo, "malformed digest entry %q", e)
			continue
		}
		name, lineStr, ok := strings.Cut(rest, ":")
		lineRef, err := strconv.Atoi(lineStr)
		if !ok || err != nil || lineRef < 1 {
			r.problemf(DigestsFile, lineNo, "malformed digest entry %q", e)
			continue
		}
		if kind != "" && !known[name] {
			r.problemf(DigestsFile, lineNo, "digest recorded for %q, which is not a %s-pack file", name, kind)
			continue
		}
		if recorded[name] == nil {
			recorded[name] = map[int]string{}
		}
		if _, dup := recorded[name][lineRef]; dup {
			r.problemf(DigestsFile, lineNo, "duplicate digest entry for %s:%d", name, lineRef)
			continue
		}
		recorded[name][lineRef] = digest
	}

	// Expected files come from the manifest kind; with no manifest we
	// still check whatever the footer names.
	names := packFiles(kind)
	if kind == "" {
		names = loadgen.SortedKeys(recorded)
	}
	for _, name := range names {
		content, ok := readFile(name)
		if !ok {
			continue
		}
		fileLines := contentLines(content)
		recs := recorded[name]
		if recs == nil {
			r.problemf(DigestsFile, 0, "no digests recorded for %s", name)
			continue
		}
		for i, line := range fileLines {
			want, ok := recs[i+1]
			if !ok {
				r.problemf(DigestsFile, 0, "no digest recorded for %s:%d", name, i+1)
				continue
			}
			if got := lineDigest(line); got != want {
				r.problemf(name, i+1, "digest mismatch (recorded %s, content hashes to %s)", want, got)
			}
		}
		for lineRef := range recs {
			if lineRef > len(fileLines) {
				r.problemf(name, lineRef, "digest recorded but file has only %d line(s) (truncated?)", len(fileLines))
			}
		}
	}
}

func (r *Result) parseWorkload(data string) {
	for i, line := range contentLines(data) {
		var e WorkloadEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			r.problemf(WorkloadFile, i+1, "does not parse: %v", err)
			return
		}
		if e.ID != i {
			r.problemf(WorkloadFile, i+1, "request id %d out of sequence (want %d)", e.ID, i)
		}
		req, err := e.Request()
		if err != nil {
			r.problemf(WorkloadFile, i+1, "%v", err)
			return
		}
		r.Workload = append(r.Workload, req)
	}
}

func (r *Result) parseResults(data string) {
	valid := map[string]bool{
		loadgen.OutcomeSuccess: true, loadgen.OutcomeExpectedFault: true,
		loadgen.OutcomeRetryExhausted: true, loadgen.OutcomeFailed: true,
	}
	for i, line := range contentLines(data) {
		var o loadgen.RequestOutcome
		if err := json.Unmarshal([]byte(line), &o); err != nil {
			r.problemf(ResultsFile, i+1, "does not parse: %v", err)
			return
		}
		if o.ID != i {
			r.problemf(ResultsFile, i+1, "outcome id %d out of sequence (want %d)", o.ID, i)
		}
		if !valid[o.Class] {
			r.problemf(ResultsFile, i+1, "unknown outcome class %q", o.Class)
		}
		r.Outcomes = append(r.Outcomes, o)
	}
}

// checkBooks cross-checks two recordings of the same run, the
// per-request results and the aggregated books (reconcileMetrics adds
// the third, the server's metrics snapshot). Any two disagreeing means
// the pack was tampered with or the producer was broken — either way,
// worth a named problem.
func (r *Result) checkBooks() {
	m, b := r.Manifest, r.Books
	if len(r.Workload) != m.Requests {
		r.problemf(WorkloadFile, 0, "holds %d request(s), manifest says %d", len(r.Workload), m.Requests)
	}
	if len(r.Outcomes) != len(r.Workload) {
		r.problemf(ResultsFile, 0, "holds %d outcome(s) for %d request(s)", len(r.Outcomes), len(r.Workload))
	}
	if b == nil {
		return
	}
	if sum := b.Success + b.ExpectedFault + b.RetryExhausted + b.Failed; sum != int64(m.Requests) {
		r.problemf(BooksFile, 0, "outcome partition sums to %d, not the %d request(s) run", sum, m.Requests)
	}
	counts := map[string]int64{}
	for _, o := range r.Outcomes {
		counts[o.Class]++
	}
	for class, want := range map[string]int64{
		loadgen.OutcomeSuccess:        b.Success,
		loadgen.OutcomeExpectedFault:  b.ExpectedFault,
		loadgen.OutcomeRetryExhausted: b.RetryExhausted,
		loadgen.OutcomeFailed:         b.Failed,
	} {
		if counts[class] != want {
			r.problemf(BooksFile, 0, "books say %d %s outcome(s), results hold %d", want, class, counts[class])
		}
	}
	// Results with a golden oracle must agree with the workload they
	// answer: a successful normalize records exactly the golden NF.
	for i, o := range r.Outcomes {
		if i >= len(r.Workload) {
			break
		}
		req := r.Workload[i]
		if o.Class == loadgen.OutcomeSuccess && req.Kind == loadgen.KindNormalize && o.NF != req.WantNF {
			r.problemf(ResultsFile, i+1, "successful normalize of %s %q recorded nf %q, golden nf is %q",
				req.Spec, req.Term, o.NF, req.WantNF)
		}
	}
}

// reconcileMetrics checks the client's attempt books against the
// server's request counter in the metrics snapshot, both directions
// (the loadgen soak contract).
func (r *Result) reconcileMetrics(page metrics.Page) {
	if r.Books == nil {
		return
	}
	server := map[string]metrics.Sample{}
	for _, s := range page.Samples("adt_requests_total") {
		server[s.Labels["endpoint"]+":"+s.Labels["code"]] = s
	}
	for _, key := range loadgen.SortedKeys(r.Books.Attempts) {
		if strings.HasSuffix(key, ":transport-error") {
			continue // never reached the server; no counter to match
		}
		if s := server[key]; int64(s.Value) != r.Books.Attempts[key] {
			r.problemf(MetricsFile, s.Line, "adt_requests_total[%s] is %d, books record %d attempt(s)",
				key, int64(s.Value), r.Books.Attempts[key])
		}
	}
	for _, key := range loadgen.SortedKeys(server) {
		if r.Books.Attempts[key] == 0 {
			r.problemf(BooksFile, 0, "server counted %d request(s) for %s, books record none", int64(server[key].Value), key)
		}
	}
}

// checkMetricsMonotone walks the latency histograms in the snapshot:
// cumulative bucket counts must be non-decreasing within an endpoint,
// and the +Inf bucket must equal the endpoint's _count. A tampered
// count breaks one of these even when the digest footer was recomputed
// to match.
func (r *Result) checkMetricsMonotone(page metrics.Page) {
	prev := map[string]float64{}
	inf := map[string]float64{}
	for _, s := range page {
		ep := s.Labels["endpoint"]
		switch s.Name {
		case "adt_request_duration_seconds_bucket":
			le := s.Labels["le"]
			if s.Value < prev[ep] {
				r.problemf(MetricsFile, s.Line, "histogram for %s not monotone: bucket le=%q holds %g after %g", ep, le, s.Value, prev[ep])
			}
			prev[ep] = s.Value
			if le == "+Inf" {
				inf[ep] = s.Value
			}
		case "adt_request_duration_seconds_count":
			if v, ok := inf[ep]; ok && v != s.Value {
				r.problemf(MetricsFile, s.Line, "histogram for %s: +Inf bucket holds %g but _count is %g", ep, v, s.Value)
			}
		}
	}
}

// checkGoldenNFs re-normalizes every golden oracle in the workload
// through the current engine and requires byte-for-byte agreement —
// the strongest check in the pack: it holds only if the spec library,
// the parser, the rewrite engine and the term printer all still behave
// as they did when the pack was recorded.
func (r *Result) checkGoldenNFs() {
	env := speclib.BaseEnv()
	type pair struct{ spec, term string }
	seen := map[pair]bool{}
	const maxNamed = 5
	var drifts int
	for i, req := range r.Workload {
		if req.Kind != loadgen.KindNormalize || req.WantNF == "" {
			continue
		}
		p := pair{req.Spec, req.Term}
		if seen[p] {
			continue
		}
		seen[p] = true
		nf, err := env.Eval(req.Spec, req.Term)
		if err != nil {
			drifts++
			if drifts <= maxNamed {
				r.problemf(WorkloadFile, i+1, "golden term %s %q does not re-normalize: %v", req.Spec, req.Term, err)
			}
			continue
		}
		if got := nf.String(); got != req.WantNF {
			drifts++
			if drifts <= maxNamed {
				r.problemf(WorkloadFile, i+1, "golden nf drift for %s %q: engine now answers %q, pack records %q",
					req.Spec, req.Term, got, req.WantNF)
			}
		}
	}
	if drifts > maxNamed {
		r.problemf(WorkloadFile, 0, "... and %d more golden nf drift(s)", drifts-maxNamed)
	}
}
