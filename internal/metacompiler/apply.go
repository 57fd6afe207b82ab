package metacompiler

import (
	"fmt"

	"lemur/internal/obs"
	"lemur/internal/placer"
)

// RewireReport accounts for the steering state an Apply retracted and
// re-emitted, proving it was incremental: untouched chains keep their
// installed rules (KeptSwitchEntries / KeptClassifierRules), and only the
// touched chains' SPI ranges are re-tagged.
type RewireReport struct {
	AffectedChains []int

	RemovedSwitchEntries   int
	RemovedClassifierRules int
	RemovedSubgroups       int
	RemovedNICPrograms     int

	InstalledSwitchEntries   int
	InstalledClassifierRules int
	InstalledSubgroups       int
	InstalledNICPrograms     int

	KeptSwitchEntries   int
	KeptClassifierRules int
}

// String renders the rewire's removed/installed/kept accounting on one
// line (the form the CLIs and ChurnReport.RewireSummaries print).
func (r *RewireReport) String() string {
	return fmt.Sprintf("rewire: chains %v, switch -%d/+%d entries (%d kept), rules -%d/+%d (%d kept), subgroups -%d/+%d, nic -%d/+%d",
		r.AffectedChains,
		r.RemovedSwitchEntries, r.InstalledSwitchEntries, r.KeptSwitchEntries,
		r.RemovedClassifierRules, r.InstalledClassifierRules, r.KeptClassifierRules,
		r.RemovedSubgroups, r.InstalledSubgroups,
		r.RemovedNICPrograms, r.InstalledNICPrograms)
}

// chainSPIRange returns the inclusive SPI range owned by chain ci. Chains
// stride SPIs (spiStride paths each), so ranges never overlap — the property
// Apply's retraction loop relies on.
func chainSPIRange(ci int) (lo, hi uint32) {
	return uint32(ci*spiStride + 1), uint32((ci + 1) * spiStride)
}

// Apply applies one incremental re-placement to a live deployment: next is
// placer.Reconfigure's pin-preserving Result for the delta dl against this
// deployment's placement, and in the deployment's input grown by the
// admitted tail (the current input itself when nothing is admitted).
//
// The touched chains — retired, admitted, or re-placed: next does not carry
// their previous subgroups and NIC uses, the pinning contract read backwards
// — have their steering state retracted by SPI range. Admitted chains get
// their service paths (the slot index fixes the SPI range; slots are never
// reused), subgroups that did not survive release their core shares, fresh
// subgroups draw concrete cores from the free set, and the touched chains
// that still run are re-emitted with fresh NF instances (their state
// restarts, as on a real migration). Every other chain's rules, subgroups,
// core shares and NF instances are untouched, by pointer identity; the Kept
// counts in the report prove it. The install half is the one Compile runs
// onto an empty deployment, and like Compile, Apply renders no code.
//
// Apply is all-or-nothing on bad input: every check runs before the first
// write. A full-repack verdict is not applied here — it needs a fresh
// Compile, the disruptive path the verdict warns about.
func (d *Deployment) Apply(in *placer.Input, next *placer.Result, dl placer.Delta) (*RewireReport, error) {
	paths, err := d.checkApply(in, next, dl)
	if err != nil {
		return nil, err
	}
	sp := obs.Span("metacompiler.apply")
	defer sp.End()

	nOld := len(d.ChainPaths)
	d.ChainPaths = append(d.ChainPaths, paths...)
	d.Input = in

	// The touched set: what the delta names, plus every chain owning a
	// subgroup that next dropped (its core shares are released on the spot)
	// or introduced, or a NIC use whose node next assigns elsewhere.
	touched := make([]bool, len(in.Chains))
	for _, ci := range dl.Retire {
		touched[ci] = true
	}
	for _, ci := range dl.Admit {
		touched[ci] = true
	}
	live := make(map[*placer.Subgroup]bool, len(next.Subgroups))
	for _, psg := range next.Subgroups {
		live[psg] = true
		if _, ok := d.Shares[psg]; !ok {
			touched[psg.ChainIdx] = true
		}
	}
	for psg := range d.Shares {
		if !live[psg] {
			touched[psg.ChainIdx] = true
			delete(d.Shares, psg)
			delete(d.claimed, psg)
		}
	}
	for _, u := range d.Result.NICUses {
		if next.Assign[u.Node] != d.Result.Assign[u.Node] {
			touched[u.ChainIdx] = true
		}
	}
	rep := &RewireReport{}
	for ci, t := range touched {
		if t {
			rep.AffectedChains = append(rep.AffectedChains, ci)
		}
	}
	sp.SetAttrInt("touched", len(rep.AffectedChains))

	// Retract the touched chains' steering state by SPI range. An admitted
	// slot's range has never held any.
	prevEntries := d.Switch.EntryCount()
	prevRules := d.Switch.ClassifierRuleCount()
	for _, ci := range rep.AffectedChains {
		if ci >= nOld {
			break
		}
		lo, hi := chainSPIRange(ci)
		e, r := d.Switch.RemoveSPIRange(lo, hi)
		rep.RemovedSwitchEntries += e
		rep.RemovedClassifierRules += r
		for _, pl := range d.Pipelines {
			for _, bsg := range pl.RemoveSPIRange(lo, hi) {
				delete(d.SubgroupOf, bsg)
				rep.RemovedSubgroups++
			}
		}
		for _, nic := range d.NICs {
			rep.RemovedNICPrograms += nic.UnloadSPIRange(lo, hi)
		}
	}
	rep.KeptSwitchEntries = prevEntries - rep.RemovedSwitchEntries
	rep.KeptClassifierRules = prevRules - rep.RemovedClassifierRules

	// Lay fresh subgroups onto cores left free by the pinned ones and re-emit
	// the touched chains that still run against the new placement.
	keptSubs, keptNIC := d.subgroupCount(), d.nicProgramCount()
	if err := d.install(next, rep.AffectedChains); err != nil {
		return nil, err
	}
	rep.InstalledSwitchEntries = d.Switch.EntryCount() - rep.KeptSwitchEntries
	rep.InstalledClassifierRules = d.Switch.ClassifierRuleCount() - rep.KeptClassifierRules
	rep.InstalledSubgroups = d.subgroupCount() - keptSubs
	rep.InstalledNICPrograms = d.nicProgramCount() - keptNIC

	// Per-kind counters, once per kind present: a delta that only retires is
	// not a rewire (nothing is installed).
	if dl.Repairs() || len(dl.Admit) > 0 {
		obs.C("lemur_rewires_total").Inc()
	}
	if len(dl.Admit) > 0 {
		obs.C("lemur_admit_chains_total").Inc()
	}
	if len(dl.Retire) > 0 {
		obs.C("lemur_retire_chains_total").Inc()
	}
	obs.C("lemur_rewire_rules_removed_total").Add(uint64(rep.RemovedSwitchEntries + rep.RemovedClassifierRules))
	obs.C("lemur_rewire_rules_installed_total").Add(uint64(rep.InstalledSwitchEntries + rep.InstalledClassifierRules))
	sp.SetAttrInt("removed_entries", rep.RemovedSwitchEntries).
		SetAttrInt("installed_entries", rep.InstalledSwitchEntries).
		SetAttrInt("kept_entries", rep.KeptSwitchEntries)
	return rep, nil
}

// checkApply runs every check Apply makes on its arguments, writing nothing
// — Compile's refusals of what a render could not emit among them — and
// returns the admitted chains' service paths (their SPI identity is fixed by
// the slot index).
func (d *Deployment) checkApply(in *placer.Input, next *placer.Result, dl placer.Delta) ([][]*ServicePath, error) {
	if in == nil || next == nil {
		return nil, fmt.Errorf("metacompiler: apply needs an input and a result")
	}
	if !next.Feasible {
		return nil, fmt.Errorf("metacompiler: apply infeasible placement: %s", next.Reason)
	}
	nOld := len(d.Input.Chains)
	if len(in.Chains) != nOld+len(dl.Admit) || len(next.ChainRates) != len(in.Chains) {
		return nil, fmt.Errorf("metacompiler: apply: input has %d chains and the result covers %d; deployment has %d + %d admitted",
			len(in.Chains), len(next.ChainRates), nOld, len(dl.Admit))
	}
	for ci := 0; ci < nOld; ci++ {
		if in.Chains[ci] != d.Input.Chains[ci] {
			return nil, fmt.Errorf("metacompiler: apply: chain slot %d changed (prefix must be pointer-identical)", ci)
		}
	}
	for _, ci := range dl.Retire {
		if ci < 0 || ci >= nOld {
			return nil, fmt.Errorf("metacompiler: apply: retired chain index %d out of range", ci)
		}
		if !next.IsRetired(ci) {
			return nil, fmt.Errorf("metacompiler: apply: chain %d is not marked retired in the result", ci)
		}
	}
	for i, ci := range dl.Admit {
		if ci != nOld+i {
			return nil, fmt.Errorf("metacompiler: apply: admitted chains must be the contiguous tail [%d,%d), got %v",
				nOld, len(in.Chains), dl.Admit)
		}
	}
	paths, err := admitPaths(in, nOld)
	if err != nil {
		return nil, err
	}
	if _, err := mergeSwitchNFs(in.Chains, next.Assign); err != nil {
		return nil, err
	}
	return paths, nil
}

func (d *Deployment) subgroupCount() int {
	n := 0
	for _, pl := range d.Pipelines {
		n += len(pl.Subgroups())
	}
	return n
}

func (d *Deployment) nicProgramCount() int {
	n := 0
	for _, nic := range d.NICs {
		n += nic.ProgramCount()
	}
	return n
}
