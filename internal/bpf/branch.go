package bpf

import "lemur/internal/packet"

// Branch re-tags packets leaving a branch point of the NF-graph onto another
// service path, on the PISA switch or at a BESS subgroup's exit. Branches
// with a Filter match explicitly; filterless branches split the remaining
// traffic by flow hash in proportion to Weight (operator-estimated splits,
// §3.2).
type Branch struct {
	Filter *Filter
	Weight float64
	SPI    uint32
	SI     uint8
}

// PickBranch selects the branch for a packet: filtered branches first in
// order, then a stable per-flow weighted choice among filterless ones (a
// uniform one by index when their weights sum to zero). A frame without a
// five-tuple hashes to 0. It returns nil if no branch applies. Two passes
// over the (short) branch list keep it allocation-free.
func PickBranch(branches []Branch, p *packet.Packet) *Branch {
	var totalW float64
	weightless := 0
	for i := range branches {
		b := &branches[i]
		if b.Filter != nil {
			if b.Filter.Match(p) {
				return b
			}
			continue
		}
		weightless++
		totalW += b.Weight
	}
	if weightless == 0 {
		return nil
	}
	var u float64
	if tu, err := p.Tuple(); err == nil {
		u = float64(tu.Hash()%100000) / 100000
	}
	if totalW <= 0 {
		idx := int(u*float64(weightless)) % weightless
		for i := range branches {
			if branches[i].Filter != nil {
				continue
			}
			if idx == 0 {
				return &branches[i]
			}
			idx--
		}
	}
	acc := 0.0
	var last *Branch
	for i := range branches {
		b := &branches[i]
		if b.Filter != nil {
			continue
		}
		acc += b.Weight / totalW
		if u < acc {
			return b
		}
		last = b
	}
	return last
}
