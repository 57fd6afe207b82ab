//go:build race

package nf

// raceEnabled: under the race detector every Rule.Matches costs about half a
// microsecond, so scanning materialised rule lists of 65 536 and more rules
// per destination takes a minute while checking no concurrency.
const raceEnabled = true
