//go:build !race

package lemur

const raceEnabled = false
