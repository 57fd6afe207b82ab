package nf

import (
	"fmt"

	"lemur/internal/bpf"
	"lemur/internal/packet"
)

// match is the flexible BPF classifier ("BPF" in the canonical chains): it
// evaluates a match expression and either tags the packet with a traffic
// class or drops non-matching traffic, depending on mode.
type match struct {
	base
	filter *bpf.Filter
	class  uint32
	gate   bool // true: drop non-matching packets; false: tag only
}

// newMatch builds the classifier. Params: "filter" (bpf expression, default
// matches everything), "class" (traffic class to set on match, default 1),
// "gate" (bool-ish int: nonzero means drop non-matching packets).
func newMatch(name string, params Params) (NF, error) {
	expr := params.str("filter", "true")
	f, err := bpf.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("nf: Match %s: %w", name, err)
	}
	return &match{
		base:   base{name: name, class: "Match"},
		filter: f,
		class:  uint32(params.int("class", 1)),
		gate:   params.int("gate", 0) != 0,
	}, nil
}

// Process tags or gates the packet.
func (m *match) Process(p *packet.Packet, _ *Env) {
	if m.filter.Match(p) {
		p.TrafficClass = m.class
		return
	}
	if m.gate {
		p.Drop = true
	}
}
