// Package bess simulates the BESS software dataplane on a commodity server:
// an NSH demultiplexer pulling from the NIC, run-to-completion NF subgroups
// pinned to cores, an NSH re-encapsulating multiplexer, and the per-core
// hierarchical scheduler the meta-compiler programs (§4.2, §A.1).
//
// Functionally, ProcessFrameInPlace executes real NF code over real frames.
// For capacity, a subgroup's throughput follows the paper's model: k cores
// at clock f running a subgroup whose per-packet cost is c yields k·f/c
// packets per second (the placer's subRateBps).
package bess

import (
	"errors"
	"fmt"
	"sort"

	"lemur/internal/bpf"
	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/obs"
	"lemur/internal/packet"
)

// CoreShare allocates a fraction of one core to a subgroup; the paper's
// scheduler round-robins subgroups that share a core.
type CoreShare struct {
	Core     int
	Fraction float64 // (0, 1]
}

// CrossSocket reports whether any of the shares runs off the socket of
// srv's NIC.
func CrossSocket(srv *hw.ServerSpec, shares []CoreShare) bool {
	nicSocket := srv.NICs[0].Socket
	for _, s := range shares {
		if s.Core/srv.CoresPerSocket != nicSocket {
			return true
		}
	}
	return false
}

// Subgroup is a run-to-completion group of server-placed NFs: one packet
// batch is fully processed by every NF in the group before the next batch,
// giving zero-copy transfer, no scheduling overhead, and no cross-core
// communication (§3.2).
type Subgroup struct {
	Name      string
	NFs       []nf.NF
	SPI       uint32
	EntrySI   uint8 // packets tagged (SPI, EntrySI) enter this subgroup
	AdvanceSI uint8 // SI decrement applied by the mux on exit
	Branches  []bpf.Branch

	// CyclesPerPkt is the profiled per-packet cost of the whole subgroup
	// including coordination overheads (NSH decap/encap, demux steering).
	CyclesPerPkt float64

	Shares []CoreShare
}

var (
	mFrames = obs.C("lemur_frames_total", obs.L("platform", "server"))
	mDrops  = obs.C("lemur_frame_drops_total", obs.L("platform", "server"))
)

// Pipeline is the per-server dataplane: demux, subgroups, mux.
type Pipeline struct {
	Server  *hw.ServerSpec
	entries map[uint64]*Subgroup
	groups  []*Subgroup

	// scratch is the decode buffer for ProcessFrameInPlace: keeping it on
	// the pipeline (rather than on the stack under an interface call) makes
	// the in-place path allocation-free. Pipelines are single-goroutine
	// objects, like the per-deployment simulator that drives them.
	scratch packet.Packet
}

// PathBinding is one installed (SPI, SI) → subgroup mapping.
type PathBinding struct {
	SPI uint32
	SI  uint8
	Sub *Subgroup
}

// PathBindings returns the installed service-path bindings sorted by
// (SPI, SI), letting callers build dense dispatch tables without reaching
// into the pipeline's internals.
func (pl *Pipeline) PathBindings() []PathBinding {
	out := make([]PathBinding, 0, len(pl.entries))
	for k, sg := range pl.entries {
		out = append(out, PathBinding{SPI: uint32(k >> 8), SI: uint8(k), Sub: sg})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SPI != out[j].SPI {
			return out[i].SPI < out[j].SPI
		}
		return out[i].SI < out[j].SI
	})
	return out
}

// NewPipeline builds an empty pipeline for the server.
func NewPipeline(server *hw.ServerSpec) *Pipeline {
	return &Pipeline{Server: server, entries: make(map[uint64]*Subgroup)}
}

func pathKey(spi uint32, si uint8) uint64 { return uint64(spi)<<8 | uint64(si) }

// Pipeline errors.
var (
	errDuplicatePath = errors.New("bess: duplicate (SPI, SI) subgroup")
	errNoSubgroup    = errors.New("bess: no subgroup for service path")
	errOversubscribe = errors.New("bess: core oversubscribed")
)

// Add installs a subgroup, validating core indices and share budgets.
func (pl *Pipeline) Add(sg *Subgroup) error {
	k := pathKey(sg.SPI, sg.EntrySI)
	if _, dup := pl.entries[k]; dup {
		return fmt.Errorf("%w: spi=%d si=%d", errDuplicatePath, sg.SPI, sg.EntrySI)
	}
	for _, s := range sg.Shares {
		if s.Core < 0 || s.Core >= pl.Server.TotalCores() {
			return fmt.Errorf("bess: subgroup %s: core %d out of range (server has %d)",
				sg.Name, s.Core, pl.Server.TotalCores())
		}
		if s.Fraction <= 0 || s.Fraction > 1 {
			return fmt.Errorf("bess: subgroup %s: share %v out of (0,1]", sg.Name, s.Fraction)
		}
	}
	pl.entries[k] = sg
	pl.groups = append(pl.groups, sg)
	// Only sg's cores can have gone over; the first in share order is named.
	for _, s := range sg.Shares {
		if f := pl.coreLoad(s.Core); f > 1+1e-9 {
			// Roll back.
			delete(pl.entries, k)
			pl.groups = pl.groups[:len(pl.groups)-1]
			return fmt.Errorf("%w: core %d at %.2f", errOversubscribe, s.Core, f)
		}
	}
	return nil
}

// Subgroups returns the installed subgroups in insertion order.
func (pl *Pipeline) Subgroups() []*Subgroup { return pl.groups }

// RemoveSPIRange uninstalls every subgroup whose SPI lies in [lo, hi] and
// returns the removed subgroups in their former insertion order. Chains own
// disjoint SPI ranges, so a failover rewire retracts exactly one chain's
// subgroups (freeing their core shares) without disturbing the rest of the
// pipeline.
func (pl *Pipeline) RemoveSPIRange(lo, hi uint32) []*Subgroup {
	var removed []*Subgroup
	kept := pl.groups[:0]
	for _, sg := range pl.groups {
		if sg.SPI >= lo && sg.SPI <= hi {
			delete(pl.entries, pathKey(sg.SPI, sg.EntrySI))
			removed = append(removed, sg)
			continue
		}
		kept = append(kept, sg)
	}
	pl.groups = kept
	return removed
}

// SubgroupFor returns the subgroup serving (spi, si), or nil — used by the
// discrete-time simulator to charge the right queue before processing.
func (pl *Pipeline) SubgroupFor(spi uint32, si uint8) *Subgroup {
	return pl.entries[pathKey(spi, si)]
}

// coreLoad sums the fractions allocated on one core, in install order.
func (pl *Pipeline) coreLoad(core int) float64 {
	f := 0.0
	for _, sg := range pl.groups {
		for _, s := range sg.Shares {
			if s.Core == core {
				f += s.Fraction
			}
		}
	}
	return f
}

// ProcessFrameInPlace is the full server path for one frame arriving from
// the switch: the shared demux decapsulates NSH and steers by (SPI, SI), the
// subgroup's NFs run to completion, and the mux re-encapsulates with the
// advanced (or branch-retagged) service index. The returned frame goes back
// to the ToR. A nil frame with nil error means the chain dropped the packet.
//
// The demux and mux shift the L2 header over the NSH slot inside frame's own
// backing array (nsh.DecapShift/EncapShift), so a hop whose NFs rewrite the
// packet in place performs no allocation and no payload copy. NFs may change
// the frame's length (nf.tunnel, nf.detunnel): the returned frame is a slice
// of the input with the same base pointer unless an NF had to replace the
// packet buffer (a VLAN push with no tail room), in which case the mux
// encaps into that buffer, growing it when it has no room for the header.
func (pl *Pipeline) ProcessFrameInPlace(frame []byte, env *nf.Env) (out []byte, rerr error) {
	mFrames.Inc()
	defer func() {
		if out == nil {
			mDrops.Inc()
		}
	}()
	inner, spi, si, err := nsh.DecapShift(frame)
	if err != nil {
		return nil, fmt.Errorf("bess: demux: %w", err)
	}
	sg, ok := pl.entries[pathKey(spi, si)]
	if !ok {
		return nil, fmt.Errorf("%w: spi=%d si=%d", errNoSubgroup, spi, si)
	}
	p := &pl.scratch
	if err := p.Decode(inner); err != nil {
		return nil, fmt.Errorf("bess: %w", err)
	}
	for _, fn := range sg.NFs {
		fn.Process(p, env)
		if p.Drop {
			return nil, nil
		}
	}
	p.SyncHeaders()

	outSPI, outSI := spi, si-sg.AdvanceSI
	if si < sg.AdvanceSI {
		return nil, fmt.Errorf("bess: subgroup %s: SI underflow (si=%d advance=%d)",
			sg.Name, si, sg.AdvanceSI)
	}
	if b := bpf.PickBranch(sg.Branches, p); b != nil {
		outSPI, outSI = b.SPI, b.SI
	}
	if &p.Data[0] == &inner[0] {
		// Still the caller's buffer, whatever its length now: the NSH slot
		// in front of it is free.
		full := frame[:packet.NSHLen+len(p.Data)]
		if err := nsh.EncapShift(full, outSPI, outSI); err != nil {
			return nil, err
		}
		return full, nil
	}
	return nsh.EncapInPlace(p.Data, outSPI, outSI)
}
