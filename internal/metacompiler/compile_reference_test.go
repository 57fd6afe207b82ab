package metacompiler

import (
	"fmt"

	"lemur/internal/bess"
	"lemur/internal/nf"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/smartnic"
)

// compileReference is Compile as it stood while it kept an install sequence
// of its own beside Apply: every chain's service paths built at once, every
// NF instantiated up front, cores laid out by a per-server cursor, then
// every chain installed. It fails on a result with a retired slot (the
// retired nodes have no assignment). Like Compile, it renders no code and
// refuses what a render could not emit. TestCompileMatchesReference holds
// Compile — an empty deployment plus Apply's install half — to it.
func compileReference(in *placer.Input, res *placer.Result) (*Deployment, error) {
	if !res.Feasible {
		return nil, fmt.Errorf("metacompiler: placement is infeasible: %s", res.Reason)
	}
	sp := obs.Span("metacompiler.compile").SetAttrInt("chains", len(in.Chains))
	d := &Deployment{
		Input:      in,
		Result:     res,
		Switch:     pisa.NewSwitch(in.Topo.Switch),
		Pipelines:  make(map[string]*bess.Pipeline),
		NICs:       make(map[string]*smartnic.NIC),
		SubgroupOf: make(map[*bess.Subgroup]*placer.Subgroup),
		claimed:    make(map[*placer.Subgroup]bool),
	}
	for _, s := range in.Topo.Servers {
		d.Pipelines[s.Name] = bess.NewPipeline(s)
	}
	for _, n := range in.Topo.SmartNICs {
		d.NICs[n.Name] = smartnic.NewNIC(n)
	}

	paths, err := referenceServicePaths(in)
	if err != nil {
		return nil, err
	}
	d.ChainPaths = paths

	insts := make(map[*nfgraph.Node]nf.NF)
	for _, g := range in.Chains {
		if err := instantiate(insts, g); err != nil {
			return nil, err
		}
	}

	cores, err := referenceCores(in, res)
	if err != nil {
		return nil, err
	}
	d.Shares = cores

	for ci := range in.Chains {
		if err := d.installChain(ci, insts); err != nil {
			return nil, err
		}
	}

	if _, err := mergeSwitchNFs(in.Chains, res.Assign); err != nil {
		return nil, err
	}
	obs.C("lemur_compiles_total").Inc()
	sp.End()
	return d, nil
}

// referenceServicePaths assigns SPIs to every chain's linear paths at once.
func referenceServicePaths(in *placer.Input) ([][]*ServicePath, error) {
	out := make([][]*ServicePath, len(in.Chains))
	for ci, g := range in.Chains {
		sps, err := chainServicePaths(g, ci)
		if err != nil {
			return nil, err
		}
		out[ci] = sps
	}
	return out, nil
}

// referenceCores lays subgroups onto concrete core indices per server with
// one cursor a server, skipping each server's reserved demux cores.
func referenceCores(in *placer.Input, res *placer.Result) (map[*placer.Subgroup][]bess.CoreShare, error) {
	next := map[string]int{}
	for _, s := range in.Topo.Servers {
		next[s.Name] = s.ReservedCores
	}
	out := make(map[*placer.Subgroup][]bess.CoreShare)
	for _, sg := range res.Subgroups {
		srv, err := in.Topo.ServerByName(sg.Server)
		if err != nil {
			return nil, err
		}
		for k := 0; k < sg.Cores; k++ {
			core := next[sg.Server]
			if core >= srv.TotalCores() {
				return nil, fmt.Errorf("metacompiler: server %s out of cores for %s", sg.Server, sg.Name())
			}
			next[sg.Server]++
			out[sg] = append(out[sg], bess.CoreShare{Core: core, Fraction: 1})
		}
	}
	return out, nil
}
