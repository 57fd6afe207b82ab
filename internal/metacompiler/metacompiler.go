// Package metacompiler implements Lemur's meta-compiler (§4): given a chain
// specification and the Placer's placement, it synthesizes everything needed
// to execute the chains across platforms — NSH service-path routing (SPI/SI
// assignment, encap/decap, branch retagging), the unified P4 program for the
// ToR switch, BESS pipeline scripts and scheduler configuration for each
// server, and verified eBPF programs for SmartNIC offloads. The output is a
// Deployment that internal/runtime can execute; its generated code texts,
// with auto-generated-LoC accounting (§5.3), render on request
// (Deployment.Artifacts).
package metacompiler

import (
	"fmt"
	"sort"

	"lemur/internal/bess"
	"lemur/internal/bpf"
	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/smartnic"
)

// Deployment is a fully-stitched cross-platform NF chain installation.
type Deployment struct {
	Input  *placer.Input
	Result *placer.Result

	Switch    *pisa.Switch
	Pipelines map[string]*bess.Pipeline // per server
	NICs      map[string]*smartnic.NIC

	// ChainPaths holds per-chain service paths (SPI assignment).
	ChainPaths [][]*ServicePath

	// SubgroupOf maps a bess subgroup back to its placer subgroup (capacity
	// and core data). Aliased entries (merge suffixes reached under several
	// SPIs) map to the same placer subgroup.
	SubgroupOf map[*bess.Subgroup]*placer.Subgroup

	// Shares records the concrete core shares assigned to each placer
	// subgroup; the runtime uses it to derive actual NUMA placement.
	Shares map[*placer.Subgroup][]bess.CoreShare

	claimed map[*placer.Subgroup]bool // placer subgroups whose shares were installed
}

// EachNF calls fn on every deployed NF instance in a fixed order: servers
// by name, each pipeline's subgroups in install order and their NFs in chain
// order, then SmartNICs by name, their path programs in (SPI, SI) order and
// their NFs. An instance reachable through several merge aliases is visited
// once per alias.
func (d *Deployment) EachNF(fn func(nf.NF)) {
	for _, name := range sortedKeys(d.Pipelines) {
		for _, sg := range d.Pipelines[name].Subgroups() {
			for _, inst := range sg.NFs {
				fn(inst)
			}
		}
	}
	for _, name := range sortedKeys(d.NICs) {
		for _, pp := range d.NICs[name].PathPrograms() {
			for _, inst := range pp.NFs {
				fn(inst)
			}
		}
	}
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Compile builds a Deployment from a feasible placement. It is Apply onto an
// empty rack: every chain slot is admitted (the slot index fixes its service
// paths) and installed by the half Apply runs for the chains a delta
// touches, so a chain compiled with the rack and one admitted later get the
// same code. A retired slot keeps its service paths and installs nothing.
// Compile renders no code; it refuses what a render could not emit (see
// mergeSwitchNFs).
func Compile(in *placer.Input, res *placer.Result) (*Deployment, error) {
	if !res.Feasible {
		return nil, fmt.Errorf("metacompiler: placement is infeasible: %s", res.Reason)
	}
	sp := obs.Span("metacompiler.compile").SetAttrInt("chains", len(in.Chains))
	d, err := emptyDeployment(in, res)
	if err != nil {
		return nil, err
	}
	slots := make([]int, len(in.Chains))
	for ci := range slots {
		slots[ci] = ci
	}
	if err := d.install(res, slots); err != nil {
		return nil, err
	}
	obs.C("lemur_compiles_total").Inc()
	sp.End()
	return d, nil
}

// Restore rebuilds a deployment that Compile and a sequence of Applies
// stood up, from what that sequence leaves behind: its input and placement,
// the concrete core shares of every subgroup of res (see Shares), and the
// live chain slots in the order they were last installed (InstallOrder).
// The chains are installed in that order onto cores their shares name, so
// the switch's classifier rules and every pipeline's subgroups come back in
// the order the applies left them, and Artifacts renders the same text.
// NF instances are fresh, as after any install.
func Restore(in *placer.Input, res *placer.Result, shares map[*placer.Subgroup][]bess.CoreShare, order []int) (*Deployment, error) {
	if !res.Feasible {
		return nil, fmt.Errorf("metacompiler: placement is infeasible: %s", res.Reason)
	}
	seen := make([]bool, len(in.Chains))
	for _, ci := range order {
		if ci < 0 || ci >= len(in.Chains) || seen[ci] || res.IsRetired(ci) {
			return nil, fmt.Errorf("metacompiler: restore: install order %v is not a list of live chain slots", order)
		}
		seen[ci] = true
	}
	for ci, ok := range seen {
		if !ok && !res.IsRetired(ci) {
			return nil, fmt.Errorf("metacompiler: restore: live chain slot %d missing from the install order", ci)
		}
	}
	d, err := emptyDeployment(in, res)
	if err != nil {
		return nil, err
	}
	for _, psg := range res.Subgroups {
		if s, ok := shares[psg]; ok {
			d.Shares[psg] = s
		}
	}
	if err := d.install(res, order); err != nil {
		return nil, err
	}
	return d, nil
}

// emptyDeployment is a deployment of in's service paths with nothing
// installed, after the checks Compile makes of a feasible placement.
func emptyDeployment(in *placer.Input, res *placer.Result) (*Deployment, error) {
	paths, err := admitPaths(in, 0)
	if err != nil {
		return nil, err
	}
	if _, err := mergeSwitchNFs(in.Chains, res.Assign); err != nil {
		return nil, err
	}
	d := &Deployment{
		Input:      in,
		Switch:     pisa.NewSwitch(),
		Pipelines:  make(map[string]*bess.Pipeline, len(in.Topo.Servers)),
		NICs:       make(map[string]*smartnic.NIC, len(in.Topo.SmartNICs)),
		ChainPaths: paths,
		SubgroupOf: make(map[*bess.Subgroup]*placer.Subgroup, len(res.Subgroups)),
		Shares:     make(map[*placer.Subgroup][]bess.CoreShare, len(res.Subgroups)),
		claimed:    make(map[*placer.Subgroup]bool, len(res.Subgroups)),
	}
	for _, s := range in.Topo.Servers {
		d.Pipelines[s.Name] = bess.NewPipeline(s)
	}
	for _, n := range in.Topo.SmartNICs {
		d.NICs[n.Name] = smartnic.NewNIC(n)
	}
	return d, nil
}

// InstallOrder returns the live chain slots in the order they were last
// installed: each install adds the chain's one classifier rule, and a
// retraction removes it, so the rules list them.
func (d *Deployment) InstallOrder() []int {
	rules := d.Switch.ClassifierRules()
	order := make([]int, len(rules))
	for i, r := range rules {
		order[i] = int(r.SPI-1) / spiStride
	}
	return order
}

// instantiate adds one fresh NF instance per node of chain g to insts (an
// instance is shared across every platform entry that references its node,
// so NF state behaves like one deployment).
func instantiate(insts map[*nfgraph.Node]nf.NF, g *nfgraph.Graph) error {
	for _, n := range g.Order {
		inst, err := nf.New(n.Class(), g.Chain.Name+"/"+n.Name(), n.Inst.Params)
		if err != nil {
			return fmt.Errorf("metacompiler: %w", err)
		}
		insts[n] = inst
	}
	return nil
}

// install is the half of standing up a deployment that Compile and Apply
// share: it takes next as the deployment's placement, gives cores to the
// subgroups that hold none, and installs every listed chain that still runs
// with fresh NF instances (a chain's state restarts, as on a real
// migration).
func (d *Deployment) install(next *placer.Result, chains []int) error {
	d.Result = next
	if err := d.assignFreeCores(); err != nil {
		return err
	}
	insts := make(map[*nfgraph.Node]nf.NF)
	for _, ci := range chains {
		if next.IsRetired(ci) {
			continue
		}
		if err := instantiate(insts, d.Input.Chains[ci]); err != nil {
			return err
		}
		if err := d.installChain(ci, insts); err != nil {
			return err
		}
	}
	return nil
}

// assignFreeCores gives concrete core shares to every subgroup of the
// placement that holds none, scanning each server's cores upward from the
// reserved demux block (cores [0, ReservedCores) run the demux) and skipping
// cores held by pinned subgroups. The scan order is deterministic (Subgroups
// order, ascending cores), so compiles and applies are byte-reproducible.
// Cores on the NIC's socket run same-NUMA; the rest are cross-socket.
func (d *Deployment) assignFreeCores() error {
	type serverCore struct {
		server string
		core   int
	}
	held := 0 // cores held once every subgroup has its shares
	for _, psg := range d.Result.Subgroups {
		if shares, ok := d.Shares[psg]; ok {
			held += len(shares)
		} else {
			held += psg.Cores
		}
	}
	used := make(map[serverCore]bool, held)
	for _, psg := range d.Result.Subgroups {
		for _, s := range d.Shares[psg] {
			used[serverCore{psg.Server, s.Core}] = true
		}
	}
	for _, psg := range d.Result.Subgroups {
		if _, ok := d.Shares[psg]; ok {
			continue
		}
		srv, err := d.Input.Topo.ServerByName(psg.Server)
		if err != nil {
			return err
		}
		shares := make([]bess.CoreShare, 0, psg.Cores)
		for core := srv.ReservedCores; len(shares) < psg.Cores; core++ {
			if core >= srv.TotalCores() {
				return fmt.Errorf("metacompiler: server %s out of cores for %s", psg.Server, psg.Name())
			}
			if at := (serverCore{psg.Server, core}); !used[at] {
				used[at] = true
				shares = append(shares, bess.CoreShare{Core: core, Fraction: 1})
			}
		}
		d.Shares[psg] = shares
	}
	return nil
}

// installChain walks one chain's service paths and installs switch entries,
// server subgroups and NIC programs for every owned segment.
func (d *Deployment) installChain(ci int, insts map[*nfgraph.Node]nf.NF) error {
	in, res := d.Input, d.Result
	g := in.Chains[ci]
	chainPaths := d.ChainPaths[ci]

	// Index placer subgroups by their first node for matching.
	subOf := map[*nfgraph.Node]*placer.Subgroup{}
	for _, sg := range res.Subgroups {
		if sg.ChainIdx == ci {
			subOf[sg.Nodes[0]] = sg
		}
	}

	// Ingress classification: the chain's aggregate maps to the first
	// path's head.
	first := chainPaths[0]
	d.Switch.AddClassifierRule(pisa.ClassifierRule{
		Filter: aggregateFilter(g),
		SPI:    first.SPI,
		SI:     uint8(first.Length()),
	})

	for _, sp := range chainPaths {
		segs := segments(sp, res.Assign, res.Breaks)
		for si, seg := range segs {
			if seg.end <= sp.OwnedFrom {
				continue // installed by the owning sibling path
			}
			if seg.start < sp.OwnedFrom {
				return fmt.Errorf("metacompiler: segment straddles ownership boundary in chain %s", g.Chain.Name)
			}
			var next *segment
			if si+1 < len(segs) {
				next = &segs[si+1]
			}
			if err := d.installSegment(ci, sp, seg, next, chainPaths, insts, subOf); err != nil {
				return err
			}
			// Relay entry: every off-switch segment gets a ToR steering
			// entry at its own (SPI, SI) so packets can reach it from any
			// predecessor — the path head (untagged ingress), another
			// off-switch device, or a branch retag (whose target platform
			// the branching entry cannot know).
			if seg.platform != hw.PISA {
				entrySI := sp.siAt(seg.start)
				if d.Switch.Entry(sp.SPI, entrySI) == nil {
					d.Switch.SetEntry(sp.SPI, entrySI, &pisa.PathEntry{
						Encap: true, // first hop arrives untagged
						Out:   forwardTo(seg),
					})
				}
			}
		}
		// Egress relay: paths ending off-switch return tagged with SI 0.
		last := segs[len(segs)-1]
		if last.platform != hw.PISA && d.Switch.Entry(sp.SPI, 0) == nil {
			d.Switch.SetEntry(sp.SPI, 0, &pisa.PathEntry{
				Decap: true,
				Out:   pisa.Forward{Kind: pisa.Egress},
			})
		}
	}
	return nil
}

// installSegment emits the per-platform program for one owned segment.
func (d *Deployment) installSegment(ci int, sp *ServicePath, seg segment, next *segment,
	chainPaths []*ServicePath, insts map[*nfgraph.Node]nf.NF,
	subOf map[*nfgraph.Node]*placer.Subgroup) error {

	nodes := sp.Nodes[seg.start:seg.end]
	nfs := make([]nf.NF, len(nodes))
	for i, n := range nodes {
		nfs[i] = insts[n]
	}
	entrySI := sp.siAt(seg.start)
	advance := uint8(seg.end - seg.start)
	lastNode := nodes[len(nodes)-1]

	// Branch retargeting when the segment ends at a branch node.
	var branches []bpf.Branch
	if lastNode.IsBranch() {
		for _, bt := range branchTargetsAt(sp, seg.end-1, chainPaths) {
			var flt *bpf.Filter
			if bt.filter != "" {
				f, err := bpf.Compile(bt.filter)
				if err != nil {
					return fmt.Errorf("metacompiler: branch filter: %w", err)
				}
				flt = f
			}
			branches = append(branches, bpf.Branch{Filter: flt, Weight: bt.weight, SPI: bt.spi, SI: bt.si})
		}
	}

	switch seg.platform {
	case hw.PISA:
		e := &pisa.PathEntry{
			Apply:     nfs,
			AdvanceSI: advance,
			Branches:  branches,
			Out:       pisa.Forward{Kind: pisa.Egress},
		}
		switch {
		case len(branches) > 0:
			// A branching entry cannot know which platform each target
			// lives on: re-inject and let the target's own entry or relay
			// steer the packet.
			e.Out = pisa.Forward{Kind: pisa.Continue}
			e.Encap = true
		case next != nil:
			e.Out = forwardTo(*next)
			// NSH is needed the moment the packet leaves this entry while
			// still mid-path — §4.2(a) elides it only for chains that never
			// leave the switch, which end with next == nil below.
			e.Encap = true
		default:
			e.Decap = true // strip NSH (no-op for never-tagged paths)
		}
		if prev := d.Switch.Entry(sp.SPI, entrySI); prev != nil {
			return fmt.Errorf("metacompiler: duplicate switch entry spi=%d si=%d", sp.SPI, entrySI)
		}
		d.Switch.SetEntry(sp.SPI, entrySI, e)

	case hw.Server:
		pl := d.Pipelines[seg.device]
		if pl == nil {
			return fmt.Errorf("metacompiler: no pipeline for server %q", seg.device)
		}
		psg := subOf[nodes[0]]
		sub := &bess.Subgroup{
			Name:      fmt.Sprintf("spi%d.si%d", sp.SPI, entrySI),
			NFs:       nfs,
			SPI:       sp.SPI,
			EntrySI:   entrySI,
			AdvanceSI: advance,
			Branches:  branches,
		}
		if psg != nil {
			sub.CyclesPerPkt = psg.Cycles
			if shares, ok := d.Shares[psg]; ok && !d.claimed[psg] {
				// Concrete shares go to the first install; aliased installs
				// (merge suffixes under sibling SPIs) share the NFs but not
				// the accounting.
				sub.Shares = shares
				d.claimed[psg] = true
			}
			d.SubgroupOf[sub] = psg
		}
		if err := pl.Add(sub); err != nil {
			return fmt.Errorf("metacompiler: %w", err)
		}

	case hw.SmartNIC:
		nic := d.NICs[seg.device]
		if nic == nil {
			return fmt.Errorf("metacompiler: no NIC runtime for %q", seg.device)
		}
		if len(branches) > 0 {
			return fmt.Errorf("metacompiler: branch node %s cannot run on a SmartNIC", lastNode.Name())
		}
		insns := 0
		stack := 64
		for _, n := range nodes {
			insns += n.Meta.EBPFInstructions
			if n.Class() == "FastEncrypt" {
				stack = 256
			}
		}
		prog := smartnic.SynthesizeNF(fmt.Sprintf("spi%d.si%d", sp.SPI, entrySI), insns, stack)
		if err := nic.Load(sp.SPI, entrySI, &smartnic.PathProgram{
			Prog: prog, NFs: nfs, AdvanceSI: advance,
		}); err != nil {
			return fmt.Errorf("metacompiler: %w", err)
		}

	default:
		return fmt.Errorf("metacompiler: platform %v not supported by the code generator", seg.platform)
	}
	return nil
}

func forwardTo(seg segment) pisa.Forward {
	switch seg.platform {
	case hw.Server:
		return pisa.Forward{Kind: pisa.ToServer, Target: seg.device}
	case hw.SmartNIC:
		return pisa.Forward{Kind: pisa.ToNIC, Target: seg.device}
	case hw.OpenFlow:
		return pisa.Forward{Kind: pisa.ToOF, Target: seg.device}
	default:
		return pisa.Forward{Kind: pisa.Continue}
	}
}

// aggregateFilter compiles a chain's traffic aggregate into a classifier
// filter (nil = match everything).
func aggregateFilter(g *nfgraph.Graph) *bpf.Filter {
	agg := g.Chain.Aggregate
	expr := ""
	and := func(clause string) {
		if expr != "" {
			expr += " && "
		}
		expr += clause
	}
	if agg.SrcCIDR != "" {
		and("ip.src in " + agg.SrcCIDR)
	}
	if agg.DstCIDR != "" {
		and("ip.dst in " + agg.DstCIDR)
	}
	if agg.Proto != 0 {
		and(fmt.Sprintf("ip.proto == %d", agg.Proto))
	}
	if agg.DstPort != 0 {
		and(fmt.Sprintf("port.dst == %d", agg.DstPort))
	}
	if expr == "" {
		return nil
	}
	f, err := bpf.Compile(expr)
	if err != nil {
		return nil
	}
	return f
}
