package smartnic

import (
	"errors"
	"fmt"
	"sort"

	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/obs"
	"lemur/internal/packet"
)

var (
	mFrames = obs.C("lemur_frames_total", obs.L("platform", "smartnic"))
	mDrops  = obs.C("lemur_frame_drops_total", obs.L("platform", "smartnic"))
)

// PathProgram is the NIC-side program for one (SPI, SI) point: the verified
// eBPF program hooked at XDP, the NF implementations giving the program its
// packet semantics, and the SI advance applied on the way back to the ToR.
type PathProgram struct {
	Prog      *Program
	NFs       []nf.NF
	AdvanceSI uint8
}

// NIC is the SmartNIC runtime. Frames arrive NSH-tagged from the ToR, run
// through the XDP hook and the NF bodies, and return NSH-tagged.
type NIC struct {
	Spec    *hw.SmartNICSpec
	entries map[uint64]*PathProgram

	// scratch is the decode buffer for ProcessFrameInPlace; a NIC is a
	// single-goroutine object like the per-deployment simulator driving it.
	scratch packet.Packet
}

// NewNIC builds an empty NIC runtime.
func NewNIC(spec *hw.SmartNICSpec) *NIC {
	return &NIC{Spec: spec, entries: make(map[uint64]*PathProgram)}
}

// errNoProgram is returned for frames whose (SPI, SI) has no loaded program.
var errNoProgram = errors.New("smartnic: no program for service path")

// Load verifies and installs a path program. Verification failure means the
// offload is rejected, exactly as a real NIC would refuse the program —
// the Placer treats that placement as infeasible.
func (n *NIC) Load(spi uint32, si uint8, pp *PathProgram) error {
	if pp.Prog == nil {
		return errors.New("smartnic: nil program")
	}
	if err := verify(pp.Prog, n.Spec); err != nil {
		return fmt.Errorf("smartnic: load %s: %w", pp.Prog.Name, err)
	}
	n.entries[uint64(spi)<<8|uint64(si)] = pp
	return nil
}

// ProgramCount returns the number of loaded path programs.
func (n *NIC) ProgramCount() int { return len(n.entries) }

// PathPrograms returns the loaded programs in (SPI, SI) order — a
// deterministic walk for callers that inspect or sync per-NF state (the
// simulator's end-of-run state-gauge sync).
func (n *NIC) PathPrograms() []*PathProgram {
	keys := make([]uint64, 0, len(n.entries))
	for k := range n.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	pps := make([]*PathProgram, len(keys))
	for i, k := range keys {
		pps[i] = n.entries[k]
	}
	return pps
}

// UnloadSPIRange removes every program whose SPI lies in [lo, hi] and
// returns how many were unloaded — the failover rewire primitive for
// retracting one chain's offloads.
func (n *NIC) UnloadSPIRange(lo, hi uint32) int {
	removed := 0
	for k := range n.entries {
		if spi := uint32(k >> 8); spi >= lo && spi <= hi {
			delete(n.entries, k)
			removed++
		}
	}
	return removed
}

// ProcessFrameInPlace runs one NSH-tagged frame through the NIC: XDP
// program, NF bodies, SI advance. A nil frame with nil error is a drop. NSH
// decap/re-encap shift the L2 header inside frame's own backing array, so a
// NIC hop whose NFs rewrite the packet in place performs no allocation and
// no payload copy. The buffer contract is the server mux's
// (bess.Pipeline.ProcessFrameInPlace): same base pointer out as in, at
// whatever length the NFs left the frame.
func (n *NIC) ProcessFrameInPlace(frame []byte, env *nf.Env) (out []byte, rerr error) {
	mFrames.Inc()
	defer func() {
		if out == nil {
			mDrops.Inc()
		}
	}()
	inner, spi, si, err := nsh.DecapShift(frame)
	if err != nil {
		return nil, fmt.Errorf("smartnic: %w", err)
	}
	pp, ok := n.entries[uint64(spi)<<8|uint64(si)]
	if !ok {
		return nil, fmt.Errorf("%w: spi=%d si=%d", errNoProgram, spi, si)
	}
	action, err := run(pp.Prog, inner)
	if err != nil {
		return nil, err
	}
	if action == xdpDrop {
		return nil, nil
	}
	p := &n.scratch
	if err := p.Decode(inner); err != nil {
		return nil, fmt.Errorf("smartnic: %w", err)
	}
	for _, fn := range pp.NFs {
		fn.Process(p, env)
		if p.Drop {
			return nil, nil
		}
	}
	p.SyncHeaders()
	if si < pp.AdvanceSI {
		return nil, fmt.Errorf("smartnic: SI underflow (si=%d advance=%d)", si, pp.AdvanceSI)
	}
	if &p.Data[0] == &inner[0] {
		full := frame[:packet.NSHLen+len(p.Data)]
		if err := nsh.EncapShift(full, spi, si-pp.AdvanceSI); err != nil {
			return nil, err
		}
		return full, nil
	}
	return nsh.EncapInPlace(p.Data, spi, si-pp.AdvanceSI)
}
