//go:build !race

package stream

// raceEnabled reports whether the race detector is compiled in; timing
// gates hold uninstrumented builds only.
const raceEnabled = false
