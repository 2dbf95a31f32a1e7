//go:build !race

package dense

// raceEnabled is false in normal builds; the zero-allocation test skips
// under -race, whose instrumentation allocates.
const raceEnabled = false
