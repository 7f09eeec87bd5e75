package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchExport(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark export is slow; skipped with -short")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_rewrite.json")
	var out strings.Builder
	if code := run([]string{"-bench-out", path}, &out); code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name        string  `json:"name"`
		Iterations  int     `json:"iterations"`
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	want := map[string]bool{
		"e1_queue_spec_ops64":      false,
		"ablation_memo_nat_addn":   false,
		"ablation_nomemo_nat_addn": false,
		"ablation_compiled_off":    false,
		"batch_eval_w1":            false,
		"batch_eval_w4":            false,
	}
	for _, r := range rows {
		if _, ok := want[r.Name]; !ok {
			t.Errorf("unexpected row %q", r.Name)
			continue
		}
		want[r.Name] = true
		if r.Iterations <= 0 || r.NsPerOp <= 0 {
			t.Errorf("row %q has empty measurements: %+v", r.Name, r)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("missing row %q", name)
		}
	}
}
