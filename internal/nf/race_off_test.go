//go:build !race

package nf

const raceEnabled = false
