// Package openflow simulates a fixed-function OpenFlow switch (the paper's
// Edgecore AS5712-54X). Unlike the PISA switch, the table pipeline order is
// fixed at manufacture: an NF sequence is deployable only if its NFs map
// onto the pipeline's tables in non-decreasing order (§5.3), and service
// paths are carried in the 12-bit VLAN vid because the switch cannot parse
// NSH.
package openflow

import (
	"errors"
	"fmt"

	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/obs"
	"lemur/internal/packet"
)

var (
	mFrames = obs.C("lemur_frames_total", obs.L("platform", "openflow"))
	mDrops  = obs.C("lemur_frame_drops_total", obs.L("platform", "openflow"))
)

// Deployment errors.
var (
	errTableOrder   = errors.New("openflow: NF sequence violates fixed table order")
	errNoOFImpl     = errors.New("openflow: NF has no OpenFlow implementation")
	errRuleCapacity = errors.New("openflow: rule capacity exceeded")
	errNoBinding    = errors.New("openflow: no binding for VLAN vid")
)

// Binding is the switch program for one service-path VLAN vid.
type Binding struct {
	NFs     []nf.NF
	PopVLAN bool   // strip the vid before forwarding (path ends here)
	NextVID uint16 // rewrite vid on exit (0 = keep); advances the path
	OutPort int
}

// Switch is the OpenFlow runtime.
type Switch struct {
	Spec     *hw.OpenFlowSpec
	bindings map[uint16]*Binding
	used     int // flow rules installed
}

// NewSwitch builds an empty OpenFlow switch.
func NewSwitch(spec *hw.OpenFlowSpec) *Switch {
	return &Switch{Spec: spec, bindings: make(map[uint16]*Binding)}
}

// tableIndex maps an OF table kind to its fixed pipeline position.
func (s *Switch) tableIndex(kind string) int {
	for i, k := range s.Spec.TableOrder {
		if k == kind {
			return i
		}
	}
	return -1
}

// CheckOrder verifies that the NF classes map onto the fixed pipeline in
// non-decreasing table order — the feasibility check the Placer runs before
// offloading a sequence to the OpenFlow switch.
func (s *Switch) CheckOrder(classes []string) error {
	last := -1
	for _, class := range classes {
		meta, ok := nf.Registry[class]
		if !ok || meta.OFTable == "" {
			return fmt.Errorf("%w: %s", errNoOFImpl, class)
		}
		idx := s.tableIndex(meta.OFTable)
		if idx < 0 {
			return fmt.Errorf("%w: %s (table %q not in pipeline %v)",
				errNoOFImpl, class, meta.OFTable, s.Spec.TableOrder)
		}
		if idx < last {
			return fmt.Errorf("%w: %s's table %q comes before the previous NF's table",
				errTableOrder, class, meta.OFTable)
		}
		last = idx
	}
	return nil
}

// Deploy installs an NF sequence for the given service-path vid. rules is
// the number of flow entries the sequence needs (e.g. the ACL's rule count).
func (s *Switch) Deploy(vid uint16, nfs []nf.NF, rules int, b Binding) error {
	classes := make([]string, len(nfs))
	for i, fn := range nfs {
		classes[i] = fn.Class()
	}
	if err := s.CheckOrder(classes); err != nil {
		return err
	}
	if s.used+rules > s.Spec.MaxRules {
		return fmt.Errorf("%w: %d + %d > %d", errRuleCapacity, s.used, rules, s.Spec.MaxRules)
	}
	b.NFs = nfs
	s.bindings[vid] = &b
	s.used += rules
	return nil
}

// RulesUsed returns installed rule count.
func (s *Switch) RulesUsed() int { return s.used }

// ProcessFrame runs one VLAN-tagged frame through the pipeline. A nil frame
// with nil error is a drop.
func (s *Switch) ProcessFrame(frame []byte, env *nf.Env) (out []byte, rerr error) {
	mFrames.Inc()
	defer func() {
		if out == nil {
			mDrops.Inc()
		}
	}()
	var p packet.Packet
	if err := p.Decode(frame); err != nil {
		return nil, fmt.Errorf("openflow: %w", err)
	}
	if !p.HasVLAN {
		return nil, fmt.Errorf("%w: untagged frame", errNoBinding)
	}
	b, ok := s.bindings[p.VLAN.VID]
	if !ok {
		return nil, fmt.Errorf("%w: vid=%d", errNoBinding, p.VLAN.VID)
	}
	for _, fn := range b.NFs {
		fn.Process(&p, env)
		if p.Drop {
			return nil, nil
		}
	}
	if b.NextVID != 0 {
		p.VLAN.VID = b.NextVID
	}
	p.OutPort = b.OutPort
	p.SyncHeaders()
	frame = p.Data
	if b.PopVLAN {
		// Reuse the Detunnel NF semantics via direct re-framing.
		dt, err := nf.New("Detunnel", "of-pop", nil)
		if err != nil {
			return nil, err
		}
		dt.Process(&p, env)
		p.SyncHeaders()
		frame = p.Data
	}
	return frame, nil
}

// PathVID packs a (path, index) pair into a vid per the §5.3 encoding.
func PathVID(path uint32, index uint8) (uint16, error) {
	return nsh.PackVLAN(path, index)
}
