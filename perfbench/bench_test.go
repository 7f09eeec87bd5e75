package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// The benchmark reads the golden corpus and the pinned certificates
// relative to the repository root, where it is run.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func named(t *testing.T, name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("no workload %s", name)
	return nil
}

// streamDigest hashes every request of a prepared serve stream, in the
// order each phase sends them.
func streamDigest(t *testing.T, w *workload, seed int64) [32]byte {
	b, err := w.new(seed, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	st := b.(*serveBench).st
	h := sha256.New()
	for _, r := range st.setup {
		h.Write(r.Wire)
	}
	for _, ops := range [][]int32{st.open, st.closed, st.sample} {
		for _, i := range ops {
			h.Write(st.reqs[i].Wire)
			h.Write([]byte(st.reqs[i].NF))
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, name := range []string{"hot-normalize", "cold-normalize", "cluster-zipf"} {
		w := named(t, name)
		if streamDigest(t, w, 7) != streamDigest(t, w, 7) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		if streamDigest(t, w, 7) == streamDigest(t, w, 8) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func TestDifferentSeedDifferentColdTerms(t *testing.T) {
	terms := func(seed int64) map[string]bool {
		st, err := coldStream(seed, 300, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, r := range st.reqs {
			out[string(r.Body)] = true
		}
		return out
	}
	a, b := terms(1), terms(2)
	shared := 0
	for k := range a {
		if b[k] {
			shared++
		}
	}
	if shared > len(a)/20 {
		t.Errorf("seeds 1 and 2 share %d of %d cold terms", shared, len(a))
	}
}

// TestExactCountsRepeat runs the traced run twice with one seed: the
// counts the program makes must repeat exactly.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the system four times")
	}
	for name, keys := range map[string][]string{
		"cold-normalize": {"rewrite.steps_per_req", "rewrite.evals", "serve.nf_cache_lookups"},
		"library-check":  {"complete.ground_terms", "consist.observations", "completion.critical_pairs"},
	} {
		var runs []*result
		for k := 0; k < 2; k++ {
			res, err := traceRun(named(t, name), 5, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
			}
			runs = append(runs, res)
		}
		for _, k := range keys {
			a, b := runs[0].Metrics[k].Value, runs[1].Metrics[k].Value
			if a != b || a == 0 && k != "completion.critical_pairs" {
				t.Errorf("%s: %s was %v then %v", name, k, a, b)
			}
		}
	}
}

func TestSpansNest(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the system")
	}
	dir := t.TempDir()
	if _, err := traceRun(named(t, "hot-normalize"), 3, 1, dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dir + "/hot-normalize-seed3.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	byID := map[int32]span{}
	dec := json.NewDecoder(f)
	for dec.More() {
		var s struct {
			span
			Self int64 `json:"self_ns"`
		}
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s.Self < 0 {
			t.Errorf("span %d %s: self time %d", s.ID, s.Name, s.Self)
		}
		spans = append(spans, s.span)
		byID[s.ID] = s.span
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
		} else if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] outside parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, want := range []string{"client /v1/normalize", "serve.ServeHTTP", "serve.decode", "registry.Resolve",
		"core.ParseTerm", "term.Canon", "rewrite.Normalize", "serve.encode", "complete.CheckDynamic", "completion.Complete"} {
		if !names[want] {
			t.Errorf("no %s span", want)
		}
	}
}

func TestSelfTimeClipsAndMergesChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 50},
		{ID: 3, Parent: 1, Start: 40, End: 80},  // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	if self[1] != 100-70-10 {
		t.Errorf("self time of the parent is %d, want 20", self[1])
	}
	for id, v := range self {
		if v < 0 {
			t.Errorf("span %d: negative self time %d", id, v)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the program: the same
// workloads with the rates the program offers, and every metric the two
// kinds of run print.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].Name)
		}
		if rate := fmt.Sprintf("open loop %g/s", workloads[i].Rate); !strings.Contains(w.Why, rate) {
			t.Errorf("%s: why %q does not state %q", w.Name, w.Why, rate)
		}
	}
	names := func(list []struct{ Name string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	keys := func(r *result) []string {
		var out []string
		for k := range r.Metrics {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if testing.Short() {
		return
	}
	timed, err := timedRun(named(t, "library-check"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keys(timed), names(cfg.EndToEnd); !equal(got, want) {
		t.Errorf("timed run prints %v, BENCHMARK.json end_to_end has %v", got, want)
	}
	traced, err := traceRun(named(t, "library-check"), 1, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keys(traced), names(cfg.PerLayer); !equal(got, want) {
		t.Errorf("traced run prints %v, BENCHMARK.json per_layer has %v", got, want)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
