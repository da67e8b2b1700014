//go:build race

package cluster

// raceEnabled reports a -race build, whose simulations run several
// times slower; tests that size work against a timeout scale to it.
const raceEnabled = true
