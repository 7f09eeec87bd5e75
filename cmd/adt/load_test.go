package main

import (
	"strings"
	"testing"
)

// deterministicSection cuts a load run's output down to the
// seed-reproducible part: everything from the report header up to (not
// including) the wall-clock latency block, minus the boot line whose
// URL carries a kernel-chosen port.
func deterministicSection(t *testing.T, out string) string {
	t.Helper()
	start := strings.Index(out, "load report (seed-reproducible)")
	end := strings.Index(out, "latency (wall-clock")
	if start < 0 || end < start {
		t.Fatalf("output has no report sections:\n%s", out)
	}
	return out[start:end]
}

// TestLoadSeedReproducible is the acceptance criterion: two runs with
// the same seed at -workers 1 produce identical request sequences and
// identical reconciliation reports.
func TestLoadSeedReproducible(t *testing.T) {
	var sections [2]string
	for i := range sections {
		code, out, errOut := runWith(t, "load",
			"-seed", "42", "-duration", "1s", "-rps", "30", "-workers", "1")
		if code != 0 {
			t.Fatalf("run %d: exit = %d, stderr = %q\n%s", i, code, errOut, out)
		}
		sections[i] = deterministicSection(t, out)
	}
	if sections[0] != sections[1] {
		t.Fatalf("same seed, different deterministic sections:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			sections[0], sections[1])
	}
	if !strings.Contains(sections[0], "reconciliation: OK") {
		t.Fatalf("run did not reconcile:\n%s", sections[0])
	}
}

// TestLoadAllFaults arms every registered fault point; the run must
// still exit 0 with zero unreconciled requests (the other acceptance
// criterion).
func TestLoadAllFaults(t *testing.T) {
	code, out, errOut := runWith(t, "load",
		"-seed", "7", "-duration", "2s", "-rps", "60",
		"-faults", "all", "-slo", "p99=250ms")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q\n%s", code, errOut, out)
	}
	for _, want := range []string{
		"fault point(s) armed",
		"reconciliation: OK",
		"faults:",
		"serve.cache.nf.evict",
		"-> PASS",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "failed=0") == false {
		t.Errorf("hard failures under injected faults:\n%s", out)
	}
}

// TestLoadFlagValidation covers the argument errors: each is a usage
// error (exit 2).
func TestLoadFlagValidation(t *testing.T) {
	cases := [][]string{
		{"load", "-rps", "0"},
		{"load", "-duration", "0s"},
		{"load", "-mix", "bogus=1"},
		{"load", "-slo", "99=50ms"},
		{"load", "-faults", "no.such.point"},
		{"load", "extra-arg"},
	}
	for _, args := range cases {
		if code, _, _ := runWith(t, args...); code != exitUsage {
			t.Errorf("%v: exit = %d, want %d", args, code, exitUsage)
		}
	}
}

// TestServeFlagValidation covers the serve-side guard: negative
// -workers or -fuel must be a usage error, not a silent default.
func TestServeFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"serve", "-workers", "-1"}, "-workers must be >= 0"},
		{[]string{"serve", "-fuel", "-5"}, "-fuel must be >= 0"},
	}
	for _, c := range cases {
		code, _, errOut := runWith(t, c.args...)
		if code != exitUsage {
			t.Errorf("%v: exit = %d, want %d", c.args, code, exitUsage)
		}
		if !strings.Contains(errOut, c.want) {
			t.Errorf("%v: stderr = %q, want %q", c.args, errOut, c.want)
		}
	}
}

// TestLoadStrategyMix: a single-worker run alternating innermost and
// outermost against the default library must reconcile exactly, report
// the rotation in the deterministic section, and stay bit-reproducible
// for a fixed seed.
func TestLoadStrategyMix(t *testing.T) {
	code, out, errOut := runWith(t, "load",
		"-seed", "42", "-duration", "2s", "-rps", "40",
		"-workers", "1", "-mix", "normalize=1",
		"-strategies", "innermost,outermost")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q\n%s", code, errOut, out)
	}
	section := deterministicSection(t, out)
	for _, want := range []string{
		"strategies=innermost,outermost",
		"failed=0",
		"reconciliation: OK",
	} {
		if !strings.Contains(section, want) {
			t.Errorf("report missing %q in:\n%s", want, section)
		}
	}
	// Two runs, same seed: the rotation is assigned before any request
	// is sent, so the deterministic section is still bit-reproducible.
	_, out2, _ := runWith(t, "load",
		"-seed", "42", "-duration", "2s", "-rps", "40",
		"-workers", "1", "-mix", "normalize=1",
		"-strategies", "innermost,outermost")
	if s2 := deterministicSection(t, out2); s2 != section {
		t.Fatalf("same seed, different strategy-mixed sections:\n--- run 1 ---\n%s--- run 2 ---\n%s", section, s2)
	}
}

// TestLoadStrategyMixCluster: a strategy rotation runs against a
// cluster under every fault point, and both the client's books and the
// router's per-shard books balance exactly.
func TestLoadStrategyMixCluster(t *testing.T) {
	code, out, errOut := runWith(t, "load",
		"-replicas", "2", "-seed", "3", "-duration", "2s", "-rps", "150",
		"-strategies", "innermost,outermost", "-faults", "all")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q\n%s", code, errOut, out)
	}
	for _, want := range []string{
		"requests=300 ",
		"strategies=innermost,outermost",
		"failed=0",
		"reconciliation: OK",
		"shard reconciliation: exact across all replicas",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

// TestLoadStrategyFlagValidation: the rotation is incompatible with
// runpack recording, and entries must name real strategies. Both are
// usage errors (exit 2).
func TestLoadStrategyFlagValidation(t *testing.T) {
	cases := [][]string{
		{"load", "-strategies", "leftmost"},
		{"load", "-strategies", "innermost", "-runpack", t.TempDir()},
	}
	for _, args := range cases {
		if code, _, _ := runWith(t, args...); code != exitUsage {
			t.Errorf("%v: exit = %d, want %d", args, code, exitUsage)
		}
	}
}
