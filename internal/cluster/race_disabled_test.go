//go:build !race

package cluster

// raceEnabled reports whether this binary was built with the race detector.
const raceEnabled = false
