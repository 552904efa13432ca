//go:build race

package cluster

// raceEnabled reports whether this binary was built with the race detector,
// whose instrumentation allocates and would fail the zero-allocation pins.
const raceEnabled = true
