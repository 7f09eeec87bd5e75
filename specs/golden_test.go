package specs_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"algspec/internal/core"
	"algspec/internal/corpus"
	"algspec/internal/rewrite"
)

var update = flag.Bool("update", false, "rewrite specs/golden/*.golden from current engine output")

// localBatteries extends the loadgen term battery to the specs shipped
// in this directory (which are not part of the embedded library).
var localBatteries = map[string][]string{
	"Counter": {
		"value(start)",
		"value(inc(inc(inc(start))))",
		"value(undo(inc(inc(start))))",
		"value(undo(inc(start)))",
	},
	"Graph": {
		"hasEdge?(emptyg, 'a, 'b)",
		"hasEdge?(addEdge(emptyg, 'a, 'b), 'a, 'b)",
		"hasEdge?(addEdge(emptyg, 'a, 'b), 'a, 'c)",
		"hasEdge?(addEdge(addEdge(emptyg, 'a, 'b), 'b, 'c), 'b, 'c)",
	},
	"PQueue": {
		"isEmptyPQ?(emptypq)",
		"isEmptyPQ?(insertpq(emptypq, zero))",
		"minpq(insertpq(insertpq(emptypq, succ(zero)), zero))",
		"minpq(deleteMin(insertpq(insertpq(emptypq, succ(zero)), zero)))",
	},
}

// corpusFor renders the golden-file body for one spec under the given
// engine options. The default (no options) is the compiled tier; the
// conformance test renders the same battery under WithoutCompiledTier
// as well and requires the two renderings to be byte-identical, so the
// committed corpus pins both engines at once.
func corpusFor(t *testing.T, env *core.Env, spec string, terms []string, opts ...rewrite.Option) string {
	t.Helper()
	sys, err := env.System(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	if len(opts) > 0 {
		sys = sys.Fork(opts...)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- Golden normal forms for %s.\n", spec)
	fmt.Fprintf(&b, "-- Regenerate: go test ./specs -run Golden -update\n")
	for _, src := range terms {
		tm, err := env.ParseTerm(spec, src)
		if err != nil {
			t.Fatalf("%s: %q: %v", spec, src, err)
		}
		nf, err := sys.Normalize(tm)
		if err != nil {
			t.Fatalf("%s: %q: %v", spec, src, err)
		}
		fmt.Fprintf(&b, "\n%s\n  => %s\n", src, nf)
	}
	return b.String()
}

// TestGoldenConformance pins the normal form of a fixed term battery
// over every shipped spec — library and local — byte-for-byte against
// specs/golden/, evaluated under both the compiled tier and the
// interpreter. A diff here means the rewrite engine's observable
// behaviour changed: either fix the regression or, if the change is
// intended, regenerate with
//
//	go test ./specs -run Golden -update
//
// and commit the new corpus. CI regenerates and fails on drift, so the
// corpus can never silently rot.
func TestGoldenConformance(t *testing.T) {
	env, _ := loadAll(t)

	batteries := make(map[string][]string)
	for _, spec := range corpus.BatterySpecs() {
		batteries[spec] = corpus.Battery(spec)
	}
	for spec, terms := range localBatteries {
		batteries[spec] = terms
	}
	specs := make([]string, 0, len(batteries))
	for spec := range batteries {
		specs = append(specs, spec)
	}
	sort.Strings(specs)

	for _, spec := range specs {
		got := corpusFor(t, env, spec, batteries[spec])
		interp := corpusFor(t, env, spec, batteries[spec], rewrite.WithoutCompiledTier())
		if got != interp {
			t.Errorf("%s: compiled and interpreter tiers disagree on the golden battery:\n--- compiled ---\n%s--- interp ---\n%s",
				spec, got, interp)
		}
		path := filepath.Join("golden", strings.ToLower(spec)+".golden")
		if *update {
			if err := os.MkdirAll("golden", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to generate the corpus)", spec, err)
		}
		if string(want) != got {
			t.Errorf("%s: engine output drifted from %s:\n--- want ---\n%s--- got ---\n%s",
				spec, path, want, got)
		}
	}

	// The corpus must not hold files for specs that no longer exist —
	// stale goldens would dodge the drift check forever.
	if !*update {
		files, err := filepath.Glob(filepath.Join("golden", "*.golden"))
		if err != nil {
			t.Fatal(err)
		}
		known := make(map[string]bool, len(specs))
		for _, spec := range specs {
			known[strings.ToLower(spec)+".golden"] = true
		}
		for _, f := range files {
			if !known[filepath.Base(f)] {
				t.Errorf("stale golden file %s has no matching spec", f)
			}
		}
	}
}
