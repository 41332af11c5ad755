//go:build !race

package finject

// raceEnabled reports a build with the race detector, under which a
// simulated cycle costs about twenty times as much. The single-goroutine
// sweeps of prune_test.go have nothing for it to find and skip it; the
// equivalence matrix, whose workers share a liveness map, keeps every
// combination on fewer benchmarks.
const raceEnabled = false
