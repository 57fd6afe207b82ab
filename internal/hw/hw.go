// Package hw models the rack-scale hardware Lemur places NF chains onto: a
// PISA top-of-rack switch, commodity servers (sockets, cores, clock, NICs),
// eBPF SmartNICs, and an optional OpenFlow switch, plus the links that
// connect them. The Placer consumes these descriptions; the simulators in
// internal/pisa, internal/bess, internal/smartnic and internal/openflow
// execute against them.
package hw

import (
	"errors"
	"fmt"
)

// Platform identifies a class of execution hardware.
type Platform int

// Platforms, in the paper's Table 3 column order.
const (
	Server   Platform = iota // BESS on x86 (the paper's C++ column)
	PISA                     // P4 programmable switch
	SmartNIC                 // eBPF on a Netronome-class NIC
	OpenFlow                 // fixed-function OpenFlow switch
)

var platformNames = [...]string{"server", "pisa", "smartnic", "openflow"}

func (p Platform) String() string {
	if int(p) < len(platformNames) {
		return platformNames[p]
	}
	return fmt.Sprintf("platform(%d)", int(p))
}

// Gbps converts gigabits/second to the bits/second used throughout.
func Gbps(v float64) float64 { return v * 1e9 }

// NIC is one physical NIC port on a server. Socket records NUMA affinity:
// subgroups running on the other socket pay the cross-socket cycle penalty.
type NIC struct {
	Name        string
	CapacityBps float64
	Socket      int
}

// ServerSpec describes one commodity server.
type ServerSpec struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	ClockHz        float64
	NICs           []NIC

	// ReservedCores are unavailable to NF subgroups (the paper dedicates
	// one core to the NSH demultiplexer that pulls from the NIC).
	ReservedCores int
}

// TotalCores returns the raw core count.
func (s *ServerSpec) TotalCores() int { return s.Sockets * s.CoresPerSocket }

// WorkerCores returns cores available for NF subgroups.
func (s *ServerSpec) WorkerCores() int {
	c := s.TotalCores() - s.ReservedCores
	if c < 0 {
		return 0
	}
	return c
}

// SmartNICSpec describes an eBPF-capable SmartNIC attached to a server.
type SmartNICSpec struct {
	Name        string
	HostServer  string // name of the server it is plugged into
	CapacityBps float64

	// eBPF execution environment limits (§A.3): the verifier enforces
	// these when the meta-compiler loads a program.
	MaxInstructions int
	StackBytes      int

	// SpeedupVsServerCore scales a server-profiled NF rate when the NF runs
	// on this NIC (the paper reports >10x for ChaCha).
	SpeedupVsServerCore float64
}

// PISASpec describes the programmable ToR switch.
type PISASpec struct {
	Name            string
	PortCapacityBps float64
	Stages          int // match-action pipeline depth (the binding constraint)
	SRAMPerStage    int // memory blocks per stage
	TCAMPerStage    int
	TablesPerStage  int // max logical tables packed into one stage
}

// OpenFlowSpec describes a fixed-function OpenFlow switch. Unlike PISA, its
// table order is fixed: an NF sequence is deployable only if it maps onto
// the table pipeline in order.
type OpenFlowSpec struct {
	Name            string
	PortCapacityBps float64
	// TableOrder is the fixed pipeline: each entry names the kind of
	// processing that table can host (e.g. "acl", "monitor", "tunnel",
	// "forward"). NFs must map to tables in non-decreasing pipeline order.
	TableOrder []string
	MaxRules   int
}

// Topology is the full rack: one PISA ToR plus servers, SmartNICs and
// optionally an OpenFlow switch hanging off it. All traffic enters and exits
// via the ToR (the coordinator), so every server/NIC link is a ToR<->device
// link whose capacity is the device's port speed.
type Topology struct {
	Switch    *PISASpec
	Servers   []*ServerSpec
	SmartNICs []*SmartNICSpec
	OFSwitch  *OpenFlowSpec

	// Latency model components (§5.3): per direction switch<->server wire +
	// queueing delay, and per-platform fixed processing overheads.
	HopLatencySec      float64 // one switch<->server traversal
	EncapCycles        float64 // BESS NSH encap+decap cycle overhead per packet
	DemuxCycles        float64 // BESS demux steering cycles when subgroup replicated
	CrossSocketPenalty float64 // multiplicative cycle penalty off-NUMA
}

// ErrNotFound is returned by lookups for unknown component names.
var ErrNotFound = errors.New("hw: component not found")

// ServerByName finds a server spec.
func (t *Topology) ServerByName(name string) (*ServerSpec, error) {
	for _, s := range t.Servers {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: server %q", ErrNotFound, name)
}

// SmartNICByName finds a SmartNIC spec.
func (t *Topology) SmartNICByName(name string) (*SmartNICSpec, error) {
	for _, n := range t.SmartNICs {
		if n.Name == name {
			return n, nil
		}
	}
	return nil, fmt.Errorf("%w: smartnic %q", ErrNotFound, name)
}

// Validate checks structural sanity: nonzero resources, NIC socket indices in
// range, SmartNICs attached to known servers.
func (t *Topology) Validate() error {
	if t.Switch == nil {
		return errors.New("hw: topology has no PISA switch")
	}
	if t.Switch.Stages <= 0 {
		return fmt.Errorf("hw: switch %q has %d stages", t.Switch.Name, t.Switch.Stages)
	}
	if len(t.Servers) == 0 {
		return errors.New("hw: topology has no servers")
	}
	// Device names are one namespace: the placer and the meta-compiler index
	// servers and SmartNICs by name, and the rate LP keys a link row by it.
	// isServer records which kind took a name first.
	isServer := make(map[string]bool, len(t.Servers)+len(t.SmartNICs))
	for _, s := range t.Servers {
		if _, dup := isServer[s.Name]; dup {
			return fmt.Errorf("hw: duplicate server name %q", s.Name)
		}
		isServer[s.Name] = true
		if s.WorkerCores() <= 0 {
			return fmt.Errorf("hw: server %q has no worker cores", s.Name)
		}
		if s.ClockHz <= 0 {
			return fmt.Errorf("hw: server %q has clock %v", s.Name, s.ClockHz)
		}
		if len(s.NICs) == 0 {
			return fmt.Errorf("hw: server %q has no NICs", s.Name)
		}
		for _, n := range s.NICs {
			if n.Socket < 0 || n.Socket >= s.Sockets {
				return fmt.Errorf("hw: server %q NIC %q on socket %d of %d",
					s.Name, n.Name, n.Socket, s.Sockets)
			}
			if n.CapacityBps <= 0 {
				return fmt.Errorf("hw: server %q NIC %q has no capacity", s.Name, n.Name)
			}
		}
	}
	for _, n := range t.SmartNICs {
		if server, dup := isServer[n.Name]; dup {
			if server {
				return fmt.Errorf("hw: smartnic %q has the name of a server", n.Name)
			}
			return fmt.Errorf("hw: duplicate smartnic name %q", n.Name)
		}
		isServer[n.Name] = false
		if _, err := t.ServerByName(n.HostServer); err != nil {
			return fmt.Errorf("hw: smartnic %q: %w", n.Name, err)
		}
		if n.SpeedupVsServerCore <= 0 {
			return fmt.Errorf("hw: smartnic %q has speedup %v", n.Name, n.SpeedupVsServerCore)
		}
	}
	return nil
}

// Testbed options for the canonical paper setup.
type TestbedOption func(*Topology)

// WithServers replaces the default single NF server with n identical servers.
func WithServers(n int) TestbedOption {
	return func(t *Topology) {
		base := *t.Servers[0]
		t.Servers = nil
		for i := 0; i < n; i++ {
			s := base
			s.Name = fmt.Sprintf("nf-server-%d", i)
			nics := make([]NIC, len(base.NICs))
			copy(nics, base.NICs)
			for j := range nics {
				nics[j].Name = fmt.Sprintf("%s.%d", nics[j].Name, i)
			}
			s.NICs = nics
			t.Servers = append(t.Servers, &s)
		}
	}
}

// WithSmartNIC attaches a Netronome Agilio CX-class 40G SmartNIC to the first
// server.
func WithSmartNIC() TestbedOption {
	return func(t *Topology) {
		t.SmartNICs = append(t.SmartNICs, &SmartNICSpec{
			Name:                "agilio-cx-40",
			HostServer:          t.Servers[0].Name,
			CapacityBps:         Gbps(40),
			MaxInstructions:     4096,
			StackBytes:          512,
			SpeedupVsServerCore: 10,
		})
	}
}

// WithOpenFlowSwitch adds an Edgecore AS5712-class OpenFlow switch.
func WithOpenFlowSwitch() TestbedOption {
	return func(t *Topology) {
		t.OFSwitch = &OpenFlowSpec{
			Name:            "as5712-54x",
			PortCapacityBps: Gbps(10),
			TableOrder:      []string{"vlan", "acl", "monitor", "forward"},
			MaxRules:        4096,
		}
	}
}

// WithSingleSocket restricts each server to one 8-core socket, used by the
// Figure 3a single-server experiment.
func WithSingleSocket() TestbedOption {
	return func(t *Topology) {
		for _, s := range t.Servers {
			s.Sockets = 1
		}
	}
}

// WithSwitchScale multiplies the ToR's pipeline resources (stages and the
// per-stage SRAM/TCAM/table budgets) by factor — the aggregate abstraction
// the placement-scale sweep uses for a multi-rack fabric whose leaf switches
// pool into one logical PISA pipeline. factor < 1 is ignored.
func WithSwitchScale(factor int) TestbedOption {
	return func(t *Topology) {
		if factor < 1 || t.Switch == nil {
			return
		}
		t.Switch.Stages *= factor
		t.Switch.SRAMPerStage *= factor
		t.Switch.TCAMPerStage *= factor
		t.Switch.TablesPerStage *= factor
	}
}

// NewPaperTestbed builds the §5.1 topology: an Edgecore 100BF-32X Tofino ToR
// (32x100G, 12-stage pipeline) and one dual-socket 8-core/socket 1.7 GHz
// Xeon Bronze 3106 NF server with a single 40G Intel XL710 NIC on socket 0,
// one core reserved for the NSH demultiplexer.
func NewPaperTestbed(opts ...TestbedOption) *Topology {
	t := &Topology{
		Switch: &PISASpec{
			Name:            "tofino-100bf-32x",
			PortCapacityBps: Gbps(100),
			Stages:          12,
			SRAMPerStage:    16,
			TCAMPerStage:    8,
			TablesPerStage:  8,
		},
		Servers: []*ServerSpec{{
			Name:           "nf-server-0",
			Sockets:        2,
			CoresPerSocket: 8,
			ClockHz:        1.7e9,
			ReservedCores:  1,
			NICs:           []NIC{{Name: "xl710", CapacityBps: Gbps(40), Socket: 0}},
		}},
		HopLatencySec:      5e-6, // DPDK+switch queueing, one direction
		EncapCycles:        220,  // §5.3 measured BESS NSH encap/decap cost
		DemuxCycles:        180,  // §5.3 measured per-packet steering cost
		CrossSocketPenalty: 1.06, // Table 4: diff-NUMA costs ~4-7% higher
	}
	for _, o := range opts {
		o(t)
	}
	return t
}
