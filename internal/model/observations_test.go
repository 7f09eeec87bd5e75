package model_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algspec/internal/adt/adapters"
	"algspec/internal/adt/symtab"
	"algspec/internal/core"
	"algspec/internal/gen"
	"algspec/internal/homo"
	"algspec/internal/model"
	"algspec/internal/refimpl"
	"algspec/internal/reps"
	"algspec/internal/spec"
	"algspec/internal/speclib"
)

var update = flag.Bool("update", false, "rewrite testdata/observations.golden")

const observationsGolden = "testdata/observations.golden"

// adapterCase is one library adapter with the config its spec's check
// runs at.
type adapterCase struct {
	spec string
	impl *model.Impl
	cfg  model.Config
}

func adapterCases(env *core.Env) []adapterCase {
	return []adapterCase{
		{"Bool", adapters.Bool(env.MustGet("Bool")), model.Config{Depth: 1}},
		{"Nat", adapters.Nat(env.MustGet("Nat")), model.Config{Depth: 5, MaxInstancesPerAxiom: 400}},
		{"Queue", adapters.Queue(env.MustGet("Queue")), model.Config{Depth: 4, MaxInstancesPerAxiom: 400}},
		{"BoundedQueue", adapters.BoundedQueue(env.MustGet("BoundedQueue")), model.Config{Depth: 5, MaxInstancesPerAxiom: 300}},
		{"Array", adapters.Array(env.MustGet("Array")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"Stack", adapters.Stack(env.MustGet("Stack")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"Knowlist", adapters.Knowlist(env.MustGet("Knowlist")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"SymboltableKnows", adapters.SymboltableKnows(env.MustGet("SymboltableKnows")), model.Config{Depth: 3, MaxInstancesPerAxiom: 200}},
		{"Set", adapters.Set(env.MustGet("Set")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"List", adapters.List(env.MustGet("List")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"Bag", adapters.Bag(env.MustGet("Bag")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"BST", adapters.BST(env.MustGet("BST")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
		{"Map", adapters.Map(env.MustGet("Map")), model.Config{Depth: 3, MaxInstancesPerAxiom: 300}},
	}
}

// symtabTables are the two native Symboltable representations, checked
// at symtabCfg.
var symtabTables = []struct {
	name string
	mk   func() symtab.Table
}{
	{"stack", symtab.NewStackTable},
	{"list", symtab.NewListTable},
}

var symtabCfg = model.Config{Depth: 3, MaxInstancesPerAxiom: 250}

// refimplCfg is the config the refimpl references and mutants are
// checked at.
var refimplCfg = model.Config{Depth: 3, MaxInstancesPerAxiom: 300}

// identityMutants returns, in operation order, one mutant of impl per
// own operation whose range is a hidden sort the operation also takes:
// the mutant returns its first argument of that sort unchanged (Queue's
// remove(q) = q). A sort is hidden when it is not observable and the
// implementation does not observe the value of its minimal term.
func identityMutants(sp *spec.Spec, impl *model.Impl) []refimpl.Mutant {
	g := gen.New(sp, gen.Config{})
	h := model.NewHarness(sp, impl)
	var out []refimpl.Mutant
	for _, op := range sp.OwnOperations() {
		if op.Native || sp.Observable(op.Range) {
			continue
		}
		if min, ok := g.Minimal(op.Range); ok {
			if obs, err := h.Observe(min); err == nil && !obs.IsErr() {
				continue
			}
		}
		pos := -1
		for i, d := range op.Domain {
			if d == op.Range {
				pos = i
				break
			}
		}
		if pos < 0 {
			continue
		}
		name := op.Name
		mutated := *impl
		mutated.Apply = func(o string, args []model.Value) (model.Value, error) {
			if o == name {
				return args[pos], nil
			}
			return impl.Apply(o, args)
		}
		out = append(out, refimpl.Mutant{Spec: sp.Name, Op: name, Impl: &mutated})
	}
	return out
}

// reportLines renders a model report without the implementation's own
// values: its counts; then, per axiom (or, for an agreement check, per
// observer), the number of failing instances and the first of them; then
// its errors.
func reportLines(id string, r *model.Report) []string {
	out := []string{fmt.Sprintf("%s: %d instance(s), %d failure(s), %d error(s)",
		id, r.Checked, len(r.Failures), len(r.Errors))}
	var keys []string
	count := map[string]int{}
	first := map[string]string{}
	for _, f := range r.Failures {
		key, text := "["+f.Axiom+"]", "on "+f.Instance.String()
		if f.Axiom == "" {
			key, text = f.Instance.Sym, f.String()
		}
		if count[key] == 0 {
			keys = append(keys, key)
			first[key] = text
		}
		count[key]++
	}
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s %s: %d failure(s), first %s", id, k, count[k], first[k]))
	}
	for _, err := range r.Errors {
		out = append(out, fmt.Sprintf("%s ERROR %v", id, err))
	}
	return out
}

// modelLines runs both model checks on one implementation; ok is true
// when both pass.
func modelLines(id string, sp *spec.Spec, impl *model.Impl, cfg model.Config) (lines []string, ok bool) {
	ar := model.CheckAxioms(sp, impl, cfg)
	gr := model.CheckAgainstSpec(sp, impl, cfg)
	lines = append(reportLines(id+" axioms", ar), reportLines(id+" agreement", gr)...)
	return lines, ar.OK() && gr.OK()
}

// homoLines runs a §4 verification and renders its per-axiom counts and
// first counterexample.
func homoLines(t *testing.T, id string, v *homo.Verifier, err error, cfg homo.Config) []string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Verify(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, res := range rep.Results {
		line := fmt.Sprintf("%s [%s]: %d instance(s), %d skipped, %d passed, %d observational-only, %d failure(s)",
			id, res.Axiom.Label, res.Instances, res.Skipped, res.Passed, res.ObservationalOnly, len(res.Failures))
		if len(res.Failures) > 0 {
			line += ", first " + res.Failures[0].String()
		}
		out = append(out, line)
	}
	return out
}

// refimplEnv loads the library and the shipped specs, which hold the
// refimpl references' specifications.
func refimplEnv(t *testing.T) *core.Env {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("globbing shipped specs: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.Load(string(src)); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	return env
}

// TestObservationsGolden pins what the observational oracles report:
// both model checks over every library adapter, both Symboltable
// tables, the refimpl references and their mutants, and every adapter's
// identity mutants; and homo's E2 verifications at depth 4.
// testdata/observations.golden holds one line per report line; run
// with -update to rewrite it.
func TestObservationsGolden(t *testing.T) {
	lines := []string{
		"# model.CheckAxioms / CheckAgainstSpec and homo E2 reports; rewrite with",
		"# go test ./internal/model -run TestObservationsGolden -update",
	}
	check := func(id string, sp *spec.Spec, impl *model.Impl, cfg model.Config) bool {
		ml, ok := modelLines(id, sp, impl, cfg)
		lines = append(lines, ml...)
		return ok
	}
	env := speclib.BaseEnv()
	for _, c := range adapterCases(env) {
		check(c.spec, env.MustGet(c.spec), c.impl, c.cfg)
	}
	st := env.MustGet("Symboltable")
	for _, tb := range symtabTables {
		check("Symboltable/"+tb.name, st, adapters.Symboltable(st, tb.mk), symtabCfg)
	}

	renv := refimplEnv(t)
	for _, name := range []string{"Counter", "Graph", "PQueue"} {
		sp := renv.MustGet(name)
		check(name, sp, refimpl.Builders()[name](sp), refimplCfg)
		for _, m := range refimpl.Mutants(sp) {
			check(name+"/"+m.Op+"=mutant", sp, m.Impl, refimplCfg)
		}
	}

	identity := func(id string, sp *spec.Spec, impl *model.Impl, cfg model.Config) {
		for _, m := range identityMutants(sp, impl) {
			if check(id+"/"+m.Op+"=id", sp, m.Impl, cfg) {
				t.Errorf("identity mutant %s/%s survived both model checks", id, m.Op)
			}
		}
	}
	for _, c := range adapterCases(env) {
		identity(c.spec, env.MustGet(c.spec), c.impl, c.cfg)
	}
	for _, tb := range symtabTables {
		identity("Symboltable/"+tb.name, st, adapters.Symboltable(st, tb.mk), symtabCfg)
	}

	e2 := homo.Config{Depth: 4, MaxInstancesPerAxiom: 600}
	v, err := reps.SymtabAsStack(env, true)
	lines = append(lines, homoLines(t, "E2 stack", v, err, e2)...)
	v, err = reps.SymtabAsStack(env, false)
	lines = append(lines, homoLines(t, "E2 stack -assume=false", v, err, e2)...)
	v, err = reps.SymtabAsList(env)
	lines = append(lines, homoLines(t, "E2 list", v, err, e2)...)

	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(observationsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(observationsGolden)
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
				t.Fatal("too many changed lines")
			}
		}
	}
}
