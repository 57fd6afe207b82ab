//go:build race

package lemur

// raceEnabled: under the race detector sync.Pool drops items at random, so
// the LP's pooled tableau reallocates and allocation ceilings measured
// without it cannot hold.
const raceEnabled = true
