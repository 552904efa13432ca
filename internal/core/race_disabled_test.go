//go:build !race

package core

// raceEnabled reports whether this binary was built with the race detector.
const raceEnabled = false
