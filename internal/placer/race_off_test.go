//go:build !race

package placer

const raceEnabled = false
