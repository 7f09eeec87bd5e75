//go:build race

package cluster_test

// raceEnabled reports whether the race detector is compiled in; the
// scale-out gate skips under it because instrumentation distorts the
// throughput ratio.
const raceEnabled = true
