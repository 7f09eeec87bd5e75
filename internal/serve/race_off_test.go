//go:build !race

package serve_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation and warm/cold gates skip under it because instrumentation
// shifts allocation counts and timing ratios.
const raceEnabled = false
