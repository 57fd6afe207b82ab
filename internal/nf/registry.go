package nf

import (
	"sort"

	"lemur/internal/hw"
)

// CostModel computes the worst-case per-packet CPU cycle cost of an NF on a
// server core (same-NUMA), possibly as a function of its parameters — the
// paper profiles ACL cost as linear in rule count and NAT in entry count.
type CostModel func(params Params) float64

// constCost builds a parameter-independent cost model.
func constCost(c float64) CostModel { return func(Params) float64 { return c } }

// PISAProfile describes an NF's footprint on the programmable switch, per
// logical match/action table.
type PISAProfile struct {
	Tables int // logical match/action tables
	SRAM   int // SRAM blocks per table
	TCAM   int // TCAM blocks per table
}

// Meta is the registry entry for one NF class: constructor, placement
// choices (Table 3), cost and resource profiles.
type Meta struct {
	Class string
	Spec  string // Table 3 "Spec" column
	New   func(name string, params Params) (NF, error)

	// Platforms lists where implementations exist (Table 3 columns).
	Platforms []hw.Platform

	// Stateful NFs keep cross-packet state. Replicable reports whether the
	// implementation can be scaled across cores; the paper's Table 3 bolds
	// the two NFs that cannot (Fast Enc. and Limiter), and §3.2 additionally
	// declines to replicate NAT until port-space partitioning exists.
	Stateful   bool
	Replicable bool

	// ReadsPayload marks the NFs whose Process reads a byte past the L4
	// header (p.Payload()). An NF without it must give the same verdict,
	// headers, metadata and state for frames that differ only in payload:
	// the simulator then emits its chains' frames without payload bytes
	// (trafficgen's HeadersInto). A new NF that reads the payload must set
	// it, or it reads bytes the simulator never wrote.
	ReadsPayload bool

	// Cycles is the worst-case server cycle cost (drives throughput
	// estimation: rate = k*f/Cycles).
	Cycles CostModel

	// PISA is the switch footprint; nil if no P4 implementation.
	PISA *PISAProfile

	// EBPFInstructions approximates compiled eBPF program size for the
	// SmartNIC verifier; 0 if no eBPF implementation.
	EBPFInstructions int

	// OFTable names the OpenFlow pipeline table kind this NF maps to; ""
	// if no OpenFlow implementation.
	OFTable string
}

// SupportsPlatform reports whether the NF has an implementation for p.
func (m *Meta) SupportsPlatform(p hw.Platform) bool {
	for _, q := range m.Platforms {
		if q == p {
			return true
		}
	}
	return false
}

// Registry holds all NF classes, keyed by class name. It reproduces the
// paper's Table 3 including the artificial evaluation-only restriction of
// IPv4Fwd to P4 (applied by internal/experiments, not here — the registry
// records the real implementation set).
var Registry = map[string]*Meta{
	"Encrypt": {
		Class: "Encrypt", Spec: "128-bit AES-CBC", New: NewEncrypt,
		Platforms:    []hw.Platform{hw.Server},
		ReadsPayload: true,
		Replicable:   true,
		Cycles:       constCost(8777),
	},
	"Decrypt": {
		Class: "Decrypt", Spec: "128-bit AES-CBC", New: NewDecrypt,
		Platforms:    []hw.Platform{hw.Server},
		ReadsPayload: true,
		Replicable:   true,
		Cycles:       constCost(8800),
	},
	"FastEncrypt": {
		Class: "FastEncrypt", Spec: "128-bit Chacha", New: NewFastEncrypt,
		Platforms:        []hw.Platform{hw.Server, hw.SmartNIC},
		ReadsPayload:     true,
		Replicable:       false, // Table 3 bold
		Cycles:           constCost(3400),
		EBPFInstructions: 3600, // unrolled ChaCha rounds, near the 4k limit
	},
	"Dedup": {
		Class: "Dedup", Spec: "Network RE", New: NewDedup,
		Platforms:    []hw.Platform{hw.Server},
		Stateful:     true,
		ReadsPayload: true,
		Replicable:   true, // per-core fingerprint caches are acceptable (§5.3 Fig 3a)
		Cycles:       constCost(30867),
	},
	"Tunnel": {
		Class: "Tunnel", Spec: "Push VLAN tag", New: NewTunnel,
		Platforms:        []hw.Platform{hw.Server, hw.PISA, hw.SmartNIC, hw.OpenFlow},
		Replicable:       true,
		Cycles:           constCost(130),
		PISA:             &PISAProfile{Tables: 1, SRAM: 1},
		EBPFInstructions: 40,
		OFTable:          "vlan",
	},
	"Detunnel": {
		Class: "Detunnel", Spec: "Pop VLAN tag", New: NewDetunnel,
		Platforms:        []hw.Platform{hw.Server, hw.PISA, hw.SmartNIC, hw.OpenFlow},
		Replicable:       true,
		Cycles:           constCost(120),
		PISA:             &PISAProfile{Tables: 1, SRAM: 1},
		EBPFInstructions: 36,
		OFTable:          "vlan",
	},
	"IPv4Fwd": {
		Class: "IPv4Fwd", Spec: "IP Address match", New: NewIPv4Fwd,
		Platforms:        []hw.Platform{hw.Server, hw.PISA, hw.SmartNIC, hw.OpenFlow},
		Replicable:       true,
		Cycles:           constCost(230),
		PISA:             &PISAProfile{Tables: 1, SRAM: 2, TCAM: 1},
		EBPFInstructions: 120,
		OFTable:          "forward",
	},
	"Limiter": {
		Class: "Limiter", Spec: "Token bucket", New: NewLimiter,
		Platforms:  []hw.Platform{hw.Server},
		Stateful:   true,
		Replicable: false, // Table 3 bold: shared bucket state (§5.3 Fig 3a)
		Cycles:     constCost(190),
	},
	"UrlFilter": {
		Class: "UrlFilter", Spec: "HTML Filter", New: NewUrlFilter,
		Platforms:    []hw.Platform{hw.Server},
		ReadsPayload: true,
		Replicable:   true,
		Cycles:       constCost(610),
	},
	"Monitor": {
		Class: "Monitor", Spec: "Per-flow statistics", New: NewMonitor,
		Platforms:  []hw.Platform{hw.Server, hw.OpenFlow},
		Stateful:   true,
		Replicable: true, // flows shard cleanly by hash
		Cycles:     constCost(270),
		OFTable:    "monitor",
	},
	"NAT": {
		Class: "NAT", Spec: "Carrier-grade NAT", New: NewNAT,
		Platforms:  []hw.Platform{hw.Server, hw.PISA},
		Stateful:   true,
		Replicable: false, // §3.2: port-space partitioning is future work
		Cycles: func(p Params) float64 {
			// Linear in table size, calibrated to Table 4's 477 cycles at
			// 12000 entries.
			return 297 + 0.015*float64(p.Int("entries", 12000))
		},
		PISA: &PISAProfile{Tables: 1, SRAM: 12}, // 12k entries: SRAM-heavy
	},
	"LB": {
		Class: "LB", Spec: "Layer-4 load balance", New: NewLB,
		Platforms:        []hw.Platform{hw.Server, hw.PISA, hw.SmartNIC},
		Replicable:       true, // deterministic hash needs no shared state
		Cycles:           constCost(420),
		PISA:             &PISAProfile{Tables: 1, SRAM: 2},
		EBPFInstructions: 90,
	},
	"Match": {
		Class: "Match", Spec: "Flexible BPF Match", New: NewMatch,
		Platforms:        []hw.Platform{hw.Server, hw.PISA, hw.SmartNIC},
		Replicable:       true,
		Cycles:           constCost(520),
		PISA:             &PISAProfile{Tables: 1, SRAM: 1, TCAM: 1},
		EBPFInstructions: 64,
	},
	"ACL": {
		Class: "ACL", Spec: "ACL on src/dst fields", New: NewACL,
		Platforms:  []hw.Platform{hw.Server, hw.PISA, hw.SmartNIC, hw.OpenFlow},
		Replicable: true,
		Cycles: func(p Params) float64 {
			// Linear in rule count, calibrated to Table 4's 4008 cycles at
			// 1024 rules.
			n := p.Int("rules", 0)
			if n == 0 {
				n = defaultRuleCount
			}
			return 700 + 3.2305*float64(n)
		},
		PISA:             &PISAProfile{Tables: 1, SRAM: 1, TCAM: 2},
		EBPFInstructions: 64, // hash-map lookup, independent of rule count
		OFTable:          "acl",
	},
}

func init() {
	// "BPF" is the chain-spec name for the Match NF (Table 2 uses BPF).
	Registry["BPF"] = Registry["Match"]
}

// Classes returns all registered class names, sorted, aliases excluded.
func Classes() []string {
	var out []string
	for name, m := range Registry {
		if m != nil && m.Class == name {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
