package consist_test

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"algspec/internal/complete"
	"algspec/internal/consist"
	"algspec/internal/spec"
	"algspec/internal/speclib"
)

var update = flag.Bool("update", false, "rewrite testdata/ground_checks.golden")

const groundChecksGolden = "testdata/ground_checks.golden"

// groundExcluded are the deletion mutants the golden leaves out. Each
// deletes the one axiom of a SymtabImpl operation of range Stack, which
// then heads a stuck Stack term. The condition of retrieve' on such a
// term is decided by nothing, and both checkers nest a Go frame per
// undecided conditional until the stack overflows at depth 2, a fatal
// error that kills the test binary (ROADMAP item 2).
var groundExcluded = []string{"SymtabImpl -[i]", "SymtabImpl -[e]", "SymtabImpl -[l]", "SymtabImpl -[a]"}

// groundCase is one input of the golden: a spec, the name its lines
// carry and the probe depth both checkers run at.
type groundCase struct {
	id    string
	sp    *spec.Spec
	depth int
}

// groundCorpus returns the golden's inputs: the library at depth 4, the
// E4 injected contradictions at depth 4, and at depth 2 every library
// spec with one own axiom deleted.
func groundCorpus(t *testing.T) []groundCase {
	t.Helper()
	env := speclib.BaseEnv()
	var cases []groundCase
	for _, name := range speclib.Names {
		cases = append(cases, groundCase{name, env.MustGet(name), 4})
	}
	for _, extra := range []string{"    [bad] isEmpty?(add(q, i)) = true", "    [bad3] remove(new) = new"} {
		sp := loadQueuePlus(t, extra)
		cases = append(cases, groundCase{"Queue +" + strings.TrimSpace(extra), sp, 4})
	}
	for _, name := range speclib.Names {
		sp := env.MustGet(name)
		for _, ax := range sp.Own {
			id := fmt.Sprintf("%s -[%s]", name, ax.Label)
			if slices.Contains(groundExcluded, id) {
				continue
			}
			cases = append(cases, groundCase{id, without(sp, ax), 2})
		}
	}
	return cases
}

// without returns a copy of sp with the axiom deleted from Own and All.
func without(sp *spec.Spec, ax *spec.Axiom) *spec.Spec {
	cp := *sp
	drop := func(a *spec.Axiom) bool { return a == ax }
	cp.Own = slices.DeleteFunc(slices.Clone(sp.Own), drop)
	cp.All = slices.DeleteFunc(slices.Clone(sp.All), drop)
	return &cp
}

// groundLines runs both ground checkers on one case and renders their
// reports, ground errors included, one line per report line.
func groundLines(c groundCase, workers int) []string {
	dr := complete.CheckDynamic(c.sp, complete.DynamicConfig{Depth: c.depth, Workers: workers})
	gr := consist.CheckGround(c.sp, consist.GroundConfig{Depth: c.depth, Workers: workers})
	text := dr.String() + gr.String()
	for _, err := range gr.Errors {
		text += fmt.Sprintf("  ERROR %v\n", err)
	}
	prefix := fmt.Sprintf("%s d%d: ", c.id, c.depth)
	var out []string
	for _, l := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		out = append(out, prefix+l)
	}
	return out
}

// TestGroundChecksGolden pins every report of the two ground checkers,
// complete.CheckDynamic and consist.CheckGround, over the corpus
// groundCorpus builds, each identical for one and two workers.
// testdata/ground_checks.golden holds one line per report line; run
// with -update to rewrite it.
func TestGroundChecksGolden(t *testing.T) {
	lines := []string{
		"# complete.CheckDynamic and consist.CheckGround reports; rewrite with",
		"# go test ./internal/consist -run TestGroundChecksGolden -update",
		"# Left out: " + strings.Join(groundExcluded, ", ") + ",",
		"# whose undecided conditionals overflow the engine's stack, a fatal error",
		"# that kills the test binary.",
	}
	for _, c := range groundCorpus(t) {
		one, two := groundLines(c, 1), groundLines(c, 2)
		if !slices.Equal(one, two) {
			t.Errorf("%s: reports differ between 1 and 2 workers:\n%s\nvs\n%s",
				c.id, strings.Join(one, "\n"), strings.Join(two, "\n"))
		}
		lines = append(lines, one...)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(groundChecksGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(groundChecksGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Errorf("%d lines, golden has %d", len(lines), len(want))
	}
	bad := 0
	for i := 0; i < len(want) && i < len(lines); i++ {
		if want[i] != lines[i] {
			t.Errorf("line %d changed:\n  want %s\n  got  %s", i+1, want[i], lines[i])
			if bad++; bad > 20 {
				t.Fatal("too many differences")
			}
		}
	}
}
