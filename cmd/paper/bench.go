package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/term"
)

// benchRow is one benchmark measurement in the exported JSON.
type benchRow struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchExport runs the rewrite-engine benchmarks the report cares about
// (the E1 queue workload on both tiers and the batch fan-out, mirroring
// bench_test.go) through testing.Benchmark and writes the rows as JSON.
// It gives CI a machine-readable BENCH_rewrite.json without needing the
// test binary.
func benchExport(out io.Writer, path string, env *core.Env) error {
	rows := []benchRow{
		measure("e1_queue_spec_ops64", benchQueueSpec(env, 64)),
		measure("ablation_compiled_off", benchQueueSpec(env, 64, rewrite.WithoutCompiledTier())),
		measure("batch_eval_w1", benchBatchEval(env, 1)),
		measure("batch_eval_w4", benchBatchEval(env, 4)),
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d benchmark rows to %s\n", len(rows), path)
	return nil
}

func measure(name string, fn func(b *testing.B)) benchRow {
	res := testing.Benchmark(fn)
	return benchRow{
		Name:        name,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
}

// benchQueueSpec is the symbolic half of bench_test.go's E1 benchmark:
// drive a queue of terms through n interleaved add/remove operations and
// observe the front. Engine options select the compiled-tier ablation
// (WithoutCompiledTier); without options it is e1_queue_spec_ops64.
func benchQueueSpec(env *core.Env, n int, opts ...rewrite.Option) func(b *testing.B) {
	sp := env.MustGet("Queue")
	items := []string{"a", "b", "c", "d"}
	ops := make([]bool, 0, n) // true = add, false = remove
	size := 0
	for i := 0; i < n; i++ {
		if size > 0 && i%3 == 0 {
			ops = append(ops, false)
			size--
		} else {
			ops = append(ops, true)
			size++
		}
	}
	return func(b *testing.B) {
		sys := rewrite.New(sp, opts...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			state := term.NewOp("new", "Queue")
			for j, add := range ops {
				if add {
					state = term.NewOp("add", "Queue", state,
						term.NewAtom(items[j%len(items)], "Item"))
				} else {
					state = sys.MustNormalize(term.NewOp("remove", "Queue", state))
				}
			}
			sys.MustNormalize(term.NewOp("isEmpty?", "Bool", state))
		}
	}
}

// benchBatchEval mirrors bench_test.go's BenchmarkBatchEval: NormalizeAll
// over a fixed batch of queue observations, forking a fresh engine per
// iteration so caches start cold for every worker count alike.
func benchBatchEval(env *core.Env, workers int) func(b *testing.B) {
	sp := env.MustGet("Queue")
	var items []*term.Term
	for i := 0; i < 256; i++ {
		state := term.NewOp("new", "Queue")
		for j := 0; j <= i%9; j++ {
			state = term.NewOp("add", "Queue", state,
				term.NewAtom(fmt.Sprintf("x%d", (i+j)%5), "Item"))
		}
		if i%2 == 0 {
			items = append(items, term.NewOp("front", "Item", state))
		} else {
			items = append(items, term.NewOp("isEmpty?", "Bool",
				term.NewOp("remove", "Queue", state)))
		}
	}
	sys := rewrite.New(sp)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := sys.Fork()
			if _, errs := f.NormalizeAll(items, workers); errs != nil {
				b.Fatal(errs)
			}
		}
	}
}
