package metacompiler

import (
	"fmt"

	"lemur/internal/placer"
)

// The pre-Apply rewires. Each forwards one delta kind to Apply and adds
// nothing; they stay only because the frozen bench/ module calls them, and
// go when it moves to Apply.

// Rewire is Apply for a re-placement that admits and retires nothing (next
// from placer.Replace). affected is only range-checked: Apply finds the
// re-placed chains from the two placements.
func (d *Deployment) Rewire(next *placer.Result, affected []int) (*RewireReport, error) {
	for _, ci := range affected {
		if ci < 0 || ci >= len(d.Input.Chains) {
			return nil, fmt.Errorf("metacompiler: rewire: chain index %d out of range", ci)
		}
	}
	return d.Apply(d.Input, next, placer.Delta{})
}

// AdmitChains is Apply for an admission-only delta: newIn is the grown input
// and added its contiguous tail (next from placer.Admit, AdmitIncremental).
func (d *Deployment) AdmitChains(newIn *placer.Input, next *placer.Result, added []int) (*RewireReport, error) {
	return d.Apply(newIn, next, placer.Delta{Admit: added})
}

// RetireChains is Apply for a retirement-only delta (next from
// placer.Retire, which marks the gone slots Retired).
func (d *Deployment) RetireChains(next *placer.Result, gone []int) (*RewireReport, error) {
	return d.Apply(d.Input, next, placer.Delta{Retire: gone})
}
