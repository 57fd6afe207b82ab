//go:build race

package placer

// raceEnabled: under the race detector sync.Pool drops items at random, so
// the LP's pooled tableau reallocates and zero-allocation assertions cannot
// hold.
const raceEnabled = true
