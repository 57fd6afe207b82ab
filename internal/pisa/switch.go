package pisa

import (
	"errors"
	"fmt"

	"lemur/internal/bpf"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/obs"
	"lemur/internal/packet"
)

var (
	mFrames = obs.C("lemur_frames_total", obs.L("platform", "pisa"))
	mDrops  = obs.C("lemur_frame_drops_total", obs.L("platform", "pisa"))
)

// PortKind classifies where the switch forwards a frame next.
type PortKind int

// Forwarding targets.
const (
	Egress   PortKind = iota // leave the rack
	ToServer                 // bounce to a server's NIC
	ToNIC                    // to a SmartNIC
	ToOF                     // to the OpenFlow switch
	Continue                 // next pipeline segment, same switch (branch/merge boundary)
	Dropped                  // consumed (NF drop, TTL, classification miss)
)

var portKindNames = [...]string{"egress", "server", "smartnic", "openflow", "continue", "drop"}

func (k PortKind) String() string {
	if int(k) < len(portKindNames) {
		return portKindNames[k]
	}
	return fmt.Sprintf("port(%d)", int(k))
}

// Forward is a forwarding decision: kind + device name (for ToServer/ToNIC).
type Forward struct {
	Kind   PortKind
	Target string
}

// Branch re-tags matching packets onto another service path, implementing a
// branch point in the NF-graph on the switch. Branches with a Filter match
// explicitly; filterless branches split remaining traffic by flow hash in
// proportion to Weight (operator-estimated splits, §3.2).
type Branch struct {
	Filter *bpf.Filter
	Weight float64
	SPI    uint32
	SI     uint8
}

// pickBranch selects the branch for a packet: filtered branches first in
// order, then a stable per-flow weighted choice among filterless ones.
// Returns nil if no branch applies. Two passes over the (short) branch list
// keep it allocation-free.
func pickBranch(branches []Branch, p *packet.Packet) *Branch {
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

// PathEntry is the switch's program for one (SPI, SI) point of a service
// path: NFs to apply on-switch, the SI advance, optional branch re-tagging,
// NSH encap/decap, and the forwarding decision.
type PathEntry struct {
	Apply     []nf.NF  // switch-resident NFs, run in order
	AdvanceSI uint8    // consolidated SI decrement (§4.2 optimization b)
	Branches  []Branch // evaluated after Apply; first match wins
	Encap     bool     // push NSH before forwarding (entering the path)
	Decap     bool     // strip NSH before forwarding (leaving the path)
	Out       Forward
}

// ClassifierRule maps ingress traffic (no NSH yet) onto a service path.
type ClassifierRule struct {
	Filter *bpf.Filter
	SPI    uint32
	SI     uint8
}

// Switch is the PISA ToR runtime: the chain coordinator. It processes at
// line rate, so it imposes no throughput constraint in the simulation — its
// binding resource is pipeline stages, enforced at Compile time.
type Switch struct {
	rules   []ClassifierRule
	entries map[uint64]*PathEntry // keyed by pathKey(spi, si)

	// scratch is the decode buffer for ProcessFrameInPlace; that entry
	// point is single-goroutine like the serial simulator driving it.
	// Concurrent callers use ProcessFrameInto with their own scratch.
	scratch packet.Packet
}

// NewSwitch builds an empty switch runtime.
func NewSwitch() *Switch {
	return &Switch{entries: make(map[uint64]*PathEntry)}
}

// pathKey packs an (SPI, SI) point into one map key, SPI above SI.
func pathKey(spi uint32, si uint8) uint64 { return uint64(spi)<<8 | uint64(si) }

// AddClassifierRule appends an ingress classification rule.
func (s *Switch) AddClassifierRule(r ClassifierRule) { s.rules = append(s.rules, r) }

// SetEntry installs the program point for (spi, si).
func (s *Switch) SetEntry(spi uint32, si uint8, e *PathEntry) {
	s.entries[pathKey(spi, si)] = e
}

// Entry returns the program point for (spi, si), or nil.
func (s *Switch) Entry(spi uint32, si uint8) *PathEntry {
	return s.entries[pathKey(spi, si)]
}

// EntryCount returns the number of installed (SPI, SI) program points.
func (s *Switch) EntryCount() int { return len(s.entries) }

// ClassifierRuleCount returns the number of ingress classification rules.
func (s *Switch) ClassifierRuleCount() int { return len(s.rules) }

// ClassifierRules returns the ingress classification rules in the order
// they were added, which is the order they match in. Callers must not
// modify the slice.
func (s *Switch) ClassifierRules() []ClassifierRule { return s.rules }

// RemoveSPIRange deletes every path entry and classifier rule whose SPI lies
// in [lo, hi] and reports how many of each were removed. Chains own disjoint
// SPI ranges (the metacompiler strides them), so this is the primitive a
// failover rewire uses to retract exactly one chain's steering state while
// leaving every other chain's rules untouched.
func (s *Switch) RemoveSPIRange(lo, hi uint32) (entries, rules int) {
	for k := range s.entries {
		if spi := uint32(k >> 8); spi >= lo && spi <= hi {
			entries++
			delete(s.entries, k)
		}
	}
	kept := s.rules[:0]
	for _, r := range s.rules {
		if r.SPI >= lo && r.SPI <= hi {
			rules++
			continue
		}
		kept = append(kept, r)
	}
	s.rules = kept
	return entries, rules
}

// errNoPath is returned for frames that match no classifier rule or (SPI,SI)
// entry.
var errNoPath = errors.New("pisa: no service path for frame")

// ProcessFrameInPlace runs one frame through the switch pipeline and
// returns the rewritten frame plus the forwarding decision. env supplies
// simulated time for any switch-resident NFs that need it. The frame stays
// in the caller's buffer: tag rewrites happen where it lies, NSH encap, like
// a VLAN push before it, grows the frame inside its spare capacity (falling
// back to a copy only when there is none) and decap shrinks it at the tail,
// so the returned frame keeps the input's backing array and full capacity —
// exactly what a pooled-buffer caller needs to recycle it. packet.TailRoom
// is what both growths take together.
func (s *Switch) ProcessFrameInPlace(frame []byte, env *nf.Env) ([]byte, Forward, error) {
	return s.process(frame, env, &s.scratch)
}

// ProcessFrameInto is ProcessFrameInPlace with a caller-owned decode
// scratch: the entry point for drivers that run one switch from several
// goroutines (the parallel simulator gives each worker shard its own
// scratch). Steering state is read-only during processing and the metric
// counters are the registry's atomic ones, so concurrent callers only need
// distinct scratch buffers and distinct frames.
func (s *Switch) ProcessFrameInto(scratch *packet.Packet, frame []byte, env *nf.Env) ([]byte, Forward, error) {
	return s.process(frame, env, scratch)
}

func (s *Switch) process(frame []byte, env *nf.Env, p *packet.Packet) (out []byte, fwd Forward, err error) {
	mFrames.Inc()
	defer func() {
		if fwd.Kind == Dropped {
			mDrops.Inc()
		}
	}()
	var spi uint32
	var si uint8
	tagged := false
	if tSPI, tSI, err := nsh.Tag(frame); err == nil {
		spi, si, tagged = tSPI, tSI, true
	}

	if err := p.Decode(frame); err != nil {
		return nil, Forward{Kind: Dropped}, fmt.Errorf("pisa: undecodable frame: %w", err)
	}

	if !tagged {
		matched := false
		for _, r := range s.rules {
			if r.Filter == nil || r.Filter.Match(p) {
				spi, si = r.SPI, r.SI
				matched = true
				break
			}
		}
		if !matched {
			return nil, Forward{Kind: Dropped}, errNoPath
		}
	}

	e := s.Entry(spi, si)
	if e == nil {
		return nil, Forward{Kind: Dropped}, fmt.Errorf("%w: spi=%d si=%d", errNoPath, spi, si)
	}

	if len(e.Apply) > 0 {
		for _, fn := range e.Apply {
			fn.Process(p, env)
			if p.Drop {
				return nil, Forward{Kind: Dropped}, nil
			}
		}
		// Only an NF can have changed the header views; without one they
		// are what Decode read from the frame, and rewriting them would
		// write the bytes already there.
		p.SyncHeaders()
		frame = p.Data
	}

	// Compute the outgoing tag: advance past the NFs applied here, or jump
	// to a branch target (filters first, then per-flow weighted choice).
	outSPI, outSI := spi, si
	if b := pickBranch(e.Branches, p); b != nil {
		outSPI, outSI = b.SPI, b.SI
	} else if e.AdvanceSI > 0 {
		if si < e.AdvanceSI {
			return nil, Forward{Kind: Dropped}, fmt.Errorf("pisa: SI underflow (si=%d advance=%d)", si, e.AdvanceSI)
		}
		outSI = si - e.AdvanceSI
	}

	switch {
	case e.Encap && !tagged:
		enc, err := nsh.EncapInPlace(frame, outSPI, outSI)
		if err != nil {
			return nil, Forward{Kind: Dropped}, err
		}
		frame = enc
	case tagged && e.Decap:
		dec, _, _, err := nsh.DecapInPlace(frame)
		if err != nil {
			return nil, Forward{Kind: Dropped}, err
		}
		frame = dec
	case tagged && (outSPI != spi || outSI != si):
		if err := nsh.SetTag(frame, outSPI, outSI); err != nil {
			return nil, Forward{Kind: Dropped}, err
		}
	}

	return frame, e.Out, nil
}
