// Command perfbench is the repository's benchmark. Given a workload and
// a seed it boots the system in-process, drives it from this process
// with at most two connections (or checker goroutines), checks every
// answer against an oracle that does not depend on the engine tier that
// produced it, and prints the end-to-end metrics; with -trace 1 it makes
// a separate traced run and prints the per-layer ledger instead. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot-normalize --seed 1 --seconds 30 --trace 0
//
// README.md in this directory lists the workloads, the metric
// definitions and the predictions later changes are judged against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix. The timed run's open-loop phase offers
// Rate×seconds×openShare operations at Rate per second; its closed-loop
// phase runs Capacity×seconds×Closed operations, rounded to whole passes
// of PassLen. Both counts are fixed by the table and the run length,
// never by how fast the system turns out to be, so a faster system does
// the same work in less time. The end-to-end latencies and throughput
// come from the closed loop, so it gets most of the run.
type workload struct {
	Name     string
	Rate     float64 // open-loop offered rate, operations per second
	Capacity float64 // closed-loop operations per second measured when the workload was defined
	Closed   float64 // share of the run the closed loop takes at Capacity
	PassLen  int     // operations per closed-loop pass
	// new prepares the inputs and oracles for a run, before any boot.
	new func(seed int64, nOpen, nClosed int) (bench, error)
}

const (
	openShare = 0.2
	// traceOpenShare sizes the traced run's open loop, which has no
	// closed loop after it.
	traceOpenShare = 0.6
	// setupBoots is how many times each run boots the system to take
	// setup_s; one boot is tens of milliseconds and varies by ±20%.
	setupBoots = 15
)

// senders is the number of client connections (or checker goroutines):
// at most two, the core count of the machine the rates were set on.
var senders = min(2, runtime.NumCPU())

var workloads = []*workload{
	{Name: "hot-normalize", Rate: 8000, Capacity: 43000, Closed: 0.65, PassLen: 10000, new: newHot},
	// Every cold request is a term the server keeps interning, so its
	// closed loop is shorter to bound the process at about 0.6 GB.
	{Name: "cold-normalize", Rate: 600, Capacity: 5800, Closed: 0.3, PassLen: 1000, new: newCold},
	{Name: "cluster-zipf", Rate: 1500, Capacity: 10500, Closed: 0.65, PassLen: 4000, new: newCluster},
	{Name: "library-check", Rate: 10, Capacity: 44, Closed: 0.65, PassLen: 20, new: newLibrary},
}

// bench is one workload's system under test and its prepared inputs.
type bench interface {
	// boot starts the system and returns once it answers.
	boot() error
	stop()
	// start connects the senders and makes any post-boot set-up calls;
	// it returns how many operations it made.
	start() (int, error)
	// open runs operation i of the open-loop phase on sender w, recording
	// spans in tr unless tr is nil.
	open(w, i int, tr *tracer) error
	// pass runs closed-loop operations [lo, hi) as one pass and returns
	// each one's latency in milliseconds and the number that failed.
	pass(lo, hi int) ([]float64, int)
	// ledger fills the per-layer metrics after a traced run's phases and
	// returns how many answers it checked and how many were wrong.
	ledger(m ledger, tr *tracer) (checked, failed int, err error)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "run length the phase sizes are derived from")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer ledger")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.Name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = traceRun(w, *seed, *seconds, ".bench_build/spans")
	} else {
		res, err = timedRun(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, "|")
}

// sizes returns the open-loop and closed-loop operation counts.
func (w *workload) sizes(seconds int) (nOpen, nClosed int) {
	nOpen = max(1, int(w.Rate*float64(seconds)*openShare))
	passes := max(3, int(math.Round(w.Capacity*float64(seconds)*w.Closed/float64(w.PassLen))))
	return nOpen, passes * w.PassLen
}

// heapBytes forces two collections (the second also empties sync.Pool
// victim caches) and returns the bytes of live heap objects.
func heapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timedRun is the untraced run that produces the end-to-end metrics.
func timedRun(w *workload, seed int64, seconds int) (*result, error) {
	nOpen, nClosed := w.sizes(seconds)
	b, err := w.new(seed, nOpen, nClosed)
	if err != nil {
		return nil, err
	}
	open := newPhase(nOpen)

	// Set-up: boot several times and keep the last system. The heap
	// baseline is taken just before the last boot, so live_heap_mb
	// counts the system and not the prepared inputs.
	var boots []float64
	var baseline uint64
	for k := 0; k < setupBoots; k++ {
		if k == setupBoots-1 {
			baseline = heapBytes()
		} else {
			runtime.GC()
		}
		t0 := time.Now()
		if err := b.boot(); err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
		if k < setupBoots-1 {
			b.stop()
		}
	}
	defer b.stop()
	attempted, err := b.start()
	if err != nil {
		return nil, err
	}

	openLoop(open, w.Rate, senders, func(s, i int) error { return b.open(s, i, nil) })
	failed := open.failed
	// The open loop has a fixed operation count, so a faster system is
	// not charged for holding more entries.
	liveMB := float64(int64(heapBytes())-int64(baseline)) / (1 << 20)

	var passes, closedLat []float64
	var closedWall time.Duration
	for p := 0; p < nClosed/w.PassLen; p++ {
		t0 := time.Now()
		lat, f := b.pass(p*w.PassLen, (p+1)*w.PassLen)
		d := time.Since(t0)
		passes = append(passes, d.Seconds())
		closedLat = append(closedLat, lat...)
		closedWall += d
		failed += f
	}

	lat := open.latencies()
	attempted += nOpen + len(closedLat)
	m := ledger{}
	m.set("setup_s", median(boots), "s")
	m.set("latency_p50_ms", percentile(closedLat, 0.5), "ms")
	m.set("throughput_rps", float64(w.PassLen)/median(passes), "1/s")
	m.set("check_pass_s", median(passes), "s")
	m.set("live_heap_mb", liveMB, "MiB")

	fmt.Printf("workload %s seed %d: %d senders, open loop %d ops at %.0f/s over %.2fs, closed loop %d passes of %d ops\n",
		w.Name, seed, senders, nOpen, w.Rate, open.wall.Seconds(), len(passes), w.PassLen)
	fmt.Printf("  %-16s %12.4f %-4s (median of %d boots)\n", "setup_s", median(boots), "s", len(boots))
	fmt.Printf("  %-16s %12.4f %-4s (%d samples, closed loop; open loop from due time: %.4f ms over %d)\n",
		"latency_p50_ms", percentile(closedLat, 0.5), "ms", len(closedLat), percentile(lat, 0.5), len(lat))
	fmt.Printf("  %-16s %12.4f %-4s (not bounded: closed loop; open loop from due time: %.4f ms over %d)\n",
		"p99", percentile(closedLat, 0.99), "ms", percentile(lat, 0.99), len(lat))
	fmt.Printf("  %-16s %12.1f %-4s (%d ops over the median pass; %d ops in %.2fs overall)\n",
		"throughput_rps", float64(w.PassLen)/median(passes), "1/s", w.PassLen, len(closedLat), closedWall.Seconds())
	fmt.Printf("  %-16s %12.4f %-4s (median of %d passes)\n", "check_pass_s", median(passes), "s", len(passes))
	fmt.Printf("  %-16s %12.2f %-4s (after the open loop, over the pre-boot baseline)\n", "live_heap_mb", liveMB, "MiB")
	fmt.Printf("  %-16s %12.4f %-4s (%d failed of %d attempted)\n", "fail_ratio", float64(failed)/float64(attempted), "", failed, attempted)
	return m.result(attempted, failed), nil
}

// reportFailure prints a failed operation to standard error.
func reportFailure(i int, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: operation %d: %v\n", i, err)
}

// ledger collects metrics by name.
type ledger map[string]metric

func (m ledger) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func (m ledger) result(attempted, failed int) *result {
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// traceRun is the separate traced run: the same workload and seed, its
// open-loop phase with every other operation traced (so the tracing
// overhead is not confounded with the machine's drift), then the
// per-layer ledger.
func traceRun(w *workload, seed int64, seconds int, spanDir string) (*result, error) {
	nOpen := max(2, int(w.Rate*float64(seconds)*traceOpenShare))
	b, err := w.new(seed, nOpen, 0)
	if err != nil {
		return nil, err
	}
	if err := b.boot(); err != nil {
		return nil, err
	}
	defer b.stop()
	attempted, err := b.start()
	if err != nil {
		return nil, err
	}
	m := ledger{}
	tr := newTracer()
	ph := newPhase(nOpen)
	openLoop(ph, w.Rate, senders, func(s, i int) error {
		if i%2 == 1 {
			return b.open(s, i, tr)
		}
		return b.open(s, i, nil)
	})
	attempted += nOpen
	failed := ph.failed
	var untraced, traced []float64
	for i, l := range ph.latencies() {
		if i%2 == 1 {
			traced = append(traced, l)
		} else {
			untraced = append(untraced, l)
		}
	}

	p50u, p50t := percentile(untraced, 0.5), percentile(traced, 0.5)
	m.set("pacer.lag_p50_us", percentile(diffMs(ph.release, ph.due), 0.5)*1000, "us")
	m.set("pacer.lag_p99_ms", percentile(diffMs(ph.release, ph.due), 0.99), "ms")
	m.set("pacer.wait_p99_ms", percentile(diffMs(ph.send, ph.due), 0.99), "ms")
	m.set("trace.overhead_pct", (p50t-p50u)/p50u*100, "%")
	m.set("trace.base_ms", p50u, "ms")
	m.set("open.latency_p50_ms", p50u, "ms")
	m.set("open.latency_p99_ms", percentile(untraced, 0.99), "ms")

	checked, wrong, err := b.ledger(m, tr)
	if err != nil {
		return nil, err
	}
	attempted += checked
	failed += wrong
	path := fmt.Sprintf("%s/%s-seed%d.jsonl", spanDir, w.Name, seed)
	if err := tr.write(path); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d (traced): %d ops, %d spans written to %s\n", w.Name, seed, nOpen, len(tr.spans), path)
	for _, k := range names {
		fmt.Printf("  %-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return m.result(attempted, failed), nil
}
