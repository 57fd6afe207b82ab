package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

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
	topo   *hw.Topology // the validated topology spec.Hardware describes
	chains []*nfspec.Chain
	graphs []*nfgraph.Graph
	// fp[i] is chains[i]'s content fingerprint; a changed fingerprint under
	// an unchanged name is a retire-then-readmit.
	fp []string
	// blocks[i] is the block of spec.Chains that chains[i] was parsed from,
	// and lets the document's let blocks in order: the next document reuses
	// chains[i], graphs[i] and fp[i] for the same block after the same lets.
	blocks []chainBlock
	lets   []string
}

// chainBlock is where a chain came from: its block's text, and how many let
// blocks preceded it.
type chainBlock struct {
	text string
	lets int
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
// handled with backoff, not a validation error.) prev, the accepted document
// before this one or nil, lends its parse of every unchanged chain and its
// topology when the hardware is unchanged; the result and every error are
// those of a parse without it.
func parseSpec(raw []byte, prev *validSpec) (*validSpec, error) {
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
	vs := &validSpec{raw: append([]byte(nil), raw...), spec: spec}
	if err := vs.parseChains(prev); err != nil {
		return nil, err
	}
	if prev != nil && prev.spec.Hardware == spec.Hardware {
		vs.topo = prev.topo
	} else {
		vs.topo = spec.topology()
		if err := vs.topo.Validate(); err != nil {
			return nil, fmt.Errorf("daemon: hardware: %w", err)
		}
	}
	for _, n := range spec.FailedNodes {
		if !hasDevice(vs.topo, n) {
			return nil, fmt.Errorf("daemon: failed_nodes names unknown device %q", n)
		}
	}
	return vs, nil
}

// hasDevice reports whether topo has a server or SmartNIC named name.
func hasDevice(topo *hw.Topology, name string) bool {
	for _, srv := range topo.Servers {
		if srv.Name == name {
			return true
		}
	}
	for _, nic := range topo.SmartNICs {
		if nic.Name == name {
			return true
		}
	}
	return false
}

// parseChains parses spec.Chains by block: a chain block whose text and
// preceding let blocks match one of prev's keeps prev's chain, graph and
// fingerprint, and only the other blocks are parsed, built and
// fingerprinted. Anything the blocks cannot settle — a document that does
// not split, a block that fails, a repeated name, no chain — is parsed
// whole, so every error is the whole-document parse's.
func (vs *validSpec) parseChains(prev *validSpec) error {
	var blocks []nfspec.Block
	if prev != nil {
		blocks = make([]nfspec.Block, 0, len(prev.blocks)+len(prev.lets)+1)
	}
	blocks, ok := nfspec.Blocks(blocks, vs.spec.Chains)
	if !ok {
		return vs.parseWhole()
	}
	n := 0 // chain blocks
	for _, b := range blocks {
		if !b.Let {
			n++
		}
	}
	vs.chains = make([]*nfspec.Chain, 0, n)
	vs.graphs = make([]*nfgraph.Graph, 0, n)
	vs.fp = make([]string, 0, n)
	vs.blocks = make([]chainBlock, 0, n)
	var macros nfspec.Macros
	var fresh []int // indices of the chains parsed here
	for _, b := range blocks {
		if b.Let {
			if _, err := macros.ParseBlock(b); err != nil {
				return vs.parseWhole()
			}
			vs.lets = append(vs.lets, b.Text)
			continue
		}
		cb := chainBlock{text: b.Text, lets: len(vs.lets)}
		var c *nfspec.Chain
		if j := prev.find(cb, vs.lets, len(vs.chains)); j >= 0 {
			c = prev.chains[j]
			vs.graphs = append(vs.graphs, prev.graphs[j])
			vs.fp = append(vs.fp, prev.fp[j])
		} else {
			var err error
			if c, err = macros.ParseBlock(b); err != nil {
				return vs.parseWhole()
			}
			fresh = append(fresh, len(vs.chains))
			vs.graphs = append(vs.graphs, nil)
			vs.fp = append(vs.fp, "")
		}
		for _, have := range vs.chains {
			if have.Name == c.Name {
				return vs.parseWhole()
			}
		}
		vs.chains = append(vs.chains, c)
		vs.blocks = append(vs.blocks, cb)
	}
	if len(vs.chains) == 0 {
		return vs.parseWhole()
	}
	for _, i := range fresh {
		if err := vs.build(i); err != nil {
			return err
		}
	}
	return nil
}

// parseWhole parses spec.Chains as one document, building every chain. It
// settles what parseChains cannot; the chains it returns key no reuse.
func (vs *validSpec) parseWhole() error {
	chains, err := nfspec.Parse(vs.spec.Chains)
	if err != nil {
		return fmt.Errorf("daemon: chains: %w", err)
	}
	if len(chains) == 0 {
		return fmt.Errorf("daemon: spec declares no chains (to tear everything down, stop the daemon)")
	}
	vs.chains, vs.blocks, vs.lets = chains, nil, nil
	vs.graphs = make([]*nfgraph.Graph, len(chains))
	vs.fp = make([]string, len(chains))
	seen := map[string]bool{}
	for i, c := range chains {
		if seen[c.Name] {
			return fmt.Errorf("daemon: duplicate chain name %q (names are the reconcile identity)", c.Name)
		}
		seen[c.Name] = true
		if err := vs.build(i); err != nil {
			return err
		}
	}
	return nil
}

// build builds and fingerprints chains[i].
func (vs *validSpec) build(i int) error {
	c := vs.chains[i]
	g, err := nfgraph.Build(c)
	if err != nil {
		return fmt.Errorf("daemon: chain %q: %w", c.Name, err)
	}
	fp, err := chainFingerprint(c)
	if err != nil {
		return err
	}
	vs.graphs[i], vs.fp[i] = g, fp
	return nil
}

// find returns the index of vs's chain parsed from block cb after the let
// blocks lets[:cb.lets], or -1. Documents mostly keep their order, so the
// search starts at hint.
func (vs *validSpec) find(cb chainBlock, lets []string, hint int) int {
	if vs == nil || len(vs.blocks) == 0 || cb.lets > len(vs.lets) ||
		!slices.Equal(vs.lets[:cb.lets], lets[:cb.lets]) {
		return -1
	}
	n := len(vs.blocks)
	for k := 0; k < n; k++ {
		if j := (hint + k) % n; vs.blocks[j] == cb {
			return j
		}
	}
	return -1
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
