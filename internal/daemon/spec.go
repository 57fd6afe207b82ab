package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
)

// Spec is the desired-state document the daemon reconciles toward: the NF
// chain specifications to run, the hardware the deployment owns, and the
// placement knobs. Operators submit it as JSON, either as a file in the
// watched directory or via PUT /v1/spec on the control socket (see
// OPERATIONS.md for the full format reference).
type Spec struct {
	// Chains is nfspec chain-specification text (the same language cmd/lemur
	// consumes via -spec). Chain names are the reconcile identity: a name
	// present here and absent from the running deployment is admitted, a
	// running name absent here is retired, and a name whose definition
	// changed is retired then re-admitted into a fresh slot.
	Chains string `json:"chains"`

	// Hardware describes the rack. It is immutable after the first apply:
	// a later spec that changes it is rejected (the daemon owns exactly one
	// deployment; re-racking means restarting the daemon).
	Hardware HardwareSpec `json:"hardware"`

	// Placement carries the placement knobs (scheme, admission headroom,
	// solver parallelism). Like Hardware it is immutable after the first
	// apply, because changing the scheme mid-flight would make the diff
	// between desired and actual unsound (pinned subgroups were solved
	// under the old scheme).
	Placement PlacementSpec `json:"placement"`

	// FailedNodes declares devices (servers or SmartNICs, by topology name)
	// the operator knows to be dead. The reconcile loop drives
	// placer.Reconfigure to move affected chains off them. Declared failures
	// are cumulative with failures injected via POST /v1/fail and with the
	// daemon's chaos plan; a node never returns to service within one
	// daemon lifetime.
	FailedNodes []string `json:"failed_nodes,omitempty"`
}

// HardwareSpec selects the simulated testbed topology, mirroring the
// hw.NewPaperTestbed options (and cmd/lemur's hardware flags).
type HardwareSpec struct {
	// Servers is the NF server count; 0 means 1 (the paper's single-server
	// rack).
	Servers int `json:"servers,omitempty"`
	// SmartNIC attaches a 40G eBPF SmartNIC to the first server.
	SmartNIC bool `json:"smartnic,omitempty"`
	// OpenFlow adds an OpenFlow switch to the rack.
	OpenFlow bool `json:"openflow,omitempty"`
	// SingleSocket restricts servers to one 8-core socket.
	SingleSocket bool `json:"single_socket,omitempty"`
	// SwitchScale multiplies the ToR's pipeline resources (0 = unscaled).
	SwitchScale int `json:"switch_scale,omitempty"`
}

// PlacementSpec carries the placement knobs of a Spec.
type PlacementSpec struct {
	// Scheme is the placement algorithm ("" = Lemur). Must be one of the
	// placer schemes: Lemur, Optimal, HWPreferred, SWPreferred, MinBounce,
	// Greedy.
	Scheme string `json:"scheme,omitempty"`
	// HeadroomCores reserves worker cores per server for future admissions
	// (placer.Input.HeadroomCores). A daemon-owned deployment should almost
	// always reserve some: with 0 the initial placement spends every core
	// on throughput and later admissions usually need a full repack.
	HeadroomCores int `json:"headroom_cores,omitempty"`
	// Parallel is the placer's candidate-evaluation worker count (<=1
	// serial; results are byte-identical at any value).
	Parallel int `json:"parallel,omitempty"`
	// FwdP4Only restricts IPv4Fwd to the PISA switch (the evaluation
	// setting, and cmd/lemur's -fwd-p4-only default). nil means true.
	FwdP4Only *bool `json:"fwd_p4_only,omitempty"`
	// Seed fixes the testbed measurement seed (0 = 1).
	Seed int64 `json:"seed,omitempty"`
}

// validSpec is a parsed and validated Spec: the raw document plus the built
// chain graphs, keyed for diffing.
type validSpec struct {
	raw    []byte // canonical JSON of the accepted document
	spec   *Spec
	chains []*nfspec.Chain
	graphs []*nfgraph.Graph
	// fp[i] is chains[i]'s content fingerprint; a changed fingerprint under
	// an unchanged name is a retire-then-readmit.
	fp []string
}

// knownSchemes are the placement schemes a Spec may name.
var knownSchemes = map[placer.Scheme]bool{
	placer.SchemeLemur:       true,
	placer.SchemeOptimal:     true,
	placer.SchemeHWPreferred: true,
	placer.SchemeSWPreferred: true,
	placer.SchemeMinBounce:   true,
	placer.SchemeGreedy:      true,
}

// scheme returns the validated placer scheme of a spec.
func (s *Spec) scheme() placer.Scheme {
	if s.Placement.Scheme == "" {
		return placer.SchemeLemur
	}
	return placer.Scheme(s.Placement.Scheme)
}

// fwdP4Only resolves the tri-state FwdP4Only knob (nil = true).
func (s *Spec) fwdP4Only() bool {
	return s.Placement.FwdP4Only == nil || *s.Placement.FwdP4Only
}

// seed resolves the measurement seed (0 = 1).
func (s *Spec) seed() int64 {
	if s.Placement.Seed == 0 {
		return 1
	}
	return s.Placement.Seed
}

// topology builds the hw topology a spec's Hardware describes.
func (s *Spec) topology() *hw.Topology {
	var opts []hw.TestbedOption
	if s.Hardware.Servers > 1 {
		opts = append(opts, hw.WithServers(s.Hardware.Servers))
	}
	if s.Hardware.SmartNIC {
		opts = append(opts, hw.WithSmartNIC())
	}
	if s.Hardware.OpenFlow {
		opts = append(opts, hw.WithOpenFlowSwitch())
	}
	if s.Hardware.SingleSocket {
		opts = append(opts, hw.WithSingleSocket())
	}
	if s.Hardware.SwitchScale > 1 {
		opts = append(opts, hw.WithSwitchScale(s.Hardware.SwitchScale))
	}
	return hw.NewPaperTestbed(opts...)
}

// chainFingerprint renders a parsed chain into a deterministic content key.
// encoding/json sorts map keys, so two textually different but structurally
// identical chain definitions fingerprint equal — reformatting a spec file
// does not churn the deployment.
func chainFingerprint(c *nfspec.Chain) (string, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("daemon: fingerprinting chain %q: %w", c.Name, err)
	}
	return string(b), nil
}

// parseSpec decodes, parses, and structurally validates a desired-state
// document. It is the validate half of validate-before-apply: everything
// rejectable without consulting the running deployment is rejected here.
// (Hardware/placement immutability is checked by the daemon against its
// applied state, and placement infeasibility is a reconcile-time condition
// handled with backoff, not a validation error.)
func parseSpec(raw []byte) (*validSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	spec := &Spec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("daemon: spec is not a valid desired-state document: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("daemon: spec has trailing data after the JSON document")
	}
	if spec.Hardware.Servers < 0 {
		return nil, fmt.Errorf("daemon: hardware.servers must be >= 0, got %d", spec.Hardware.Servers)
	}
	if spec.Hardware.SwitchScale < 0 {
		return nil, fmt.Errorf("daemon: hardware.switch_scale must be >= 0, got %d", spec.Hardware.SwitchScale)
	}
	if spec.Placement.HeadroomCores < 0 {
		return nil, fmt.Errorf("daemon: placement.headroom_cores must be >= 0, got %d", spec.Placement.HeadroomCores)
	}
	if spec.Placement.Parallel < 0 {
		return nil, fmt.Errorf("daemon: placement.parallel must be >= 0, got %d", spec.Placement.Parallel)
	}
	if !knownSchemes[spec.scheme()] {
		return nil, fmt.Errorf("daemon: unknown placement scheme %q", spec.Placement.Scheme)
	}
	chains, err := nfspec.Parse(spec.Chains)
	if err != nil {
		return nil, fmt.Errorf("daemon: chains: %w", err)
	}
	if len(chains) == 0 {
		return nil, fmt.Errorf("daemon: spec declares no chains (to tear everything down, stop the daemon)")
	}
	vs := &validSpec{raw: append([]byte(nil), raw...), spec: spec, chains: chains}
	seen := map[string]bool{}
	for _, c := range chains {
		if seen[c.Name] {
			return nil, fmt.Errorf("daemon: duplicate chain name %q (names are the reconcile identity)", c.Name)
		}
		seen[c.Name] = true
		g, err := nfgraph.Build(c)
		if err != nil {
			return nil, fmt.Errorf("daemon: chain %q: %w", c.Name, err)
		}
		fp, err := chainFingerprint(c)
		if err != nil {
			return nil, err
		}
		vs.graphs = append(vs.graphs, g)
		vs.fp = append(vs.fp, fp)
	}
	topo := spec.topology()
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("daemon: hardware: %w", err)
	}
	known := map[string]bool{}
	for _, srv := range topo.Servers {
		known[srv.Name] = true
	}
	for _, nic := range topo.SmartNICs {
		known[nic.Name] = true
	}
	for _, n := range spec.FailedNodes {
		if !known[n] {
			return nil, fmt.Errorf("daemon: failed_nodes names unknown device %q", n)
		}
	}
	return vs, nil
}

// hardwareKey renders the immutable-after-first-apply portion of a spec for
// comparison across generations.
func hardwareKey(s *Spec) string {
	fwd := s.fwdP4Only()
	servers := s.Hardware.Servers
	if servers == 0 {
		servers = 1
	}
	return fmt.Sprintf("servers=%d smartnic=%v openflow=%v single_socket=%v switch_scale=%d scheme=%s headroom=%d fwd_p4_only=%v seed=%d",
		servers, s.Hardware.SmartNIC, s.Hardware.OpenFlow, s.Hardware.SingleSocket,
		s.Hardware.SwitchScale, s.scheme(), s.Placement.HeadroomCores, fwd, s.seed())
}
