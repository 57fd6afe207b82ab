package placer

import (
	"lemur/internal/hw"
	"lemur/internal/nfgraph"
)

// placeHWPreferred models the "use accelerators wherever possible" strategy
// (cf. SilkRoad-style offloading): every NF with a P4 implementation goes on
// the switch, the rest on servers, spare cores spread evenly across chains.
// It performs no stage eviction and no SLO-aware allocation, so it fails
// when the program overflows the pipeline or a slow chain starves.
func placeHWPreferred(in *Input) (*Result, error) {
	return finish(in, hwPreferredAssign(in), policyEven), nil
}

func hwPreferredAssign(in *Input) map[*nfgraph.Node]Assign {
	assign := make(map[*nfgraph.Node]Assign)
	for _, g := range in.Chains {
		for _, n := range g.Order {
			switch {
			case in.allows(n, hw.PISA):
				assign[n] = Assign{Platform: hw.PISA, Device: in.Topo.Switch.Name}
			case in.allows(n, hw.SmartNIC) && !in.allows(n, hw.Server):
				assign[n] = Assign{Platform: hw.SmartNIC}
			default:
				assign[n] = Assign{Platform: hw.Server}
			}
		}
	}
	bindNICs(in, assign)
	return assign
}

// placeSWPreferred models kernel-bypass software NFV (NetBricks-style):
// every NF with a software implementation runs on a server; only NFs with
// no software option (the evaluation's P4-only IPv4Fwd) go to hardware.
// Whole chains collapse into few giant subgroups that cannot replicate once
// they contain a non-replicable or branch/merge NF.
func placeSWPreferred(in *Input) (*Result, error) {
	assign := make(map[*nfgraph.Node]Assign)
	for _, g := range in.Chains {
		for _, n := range g.Order {
			switch {
			case in.allows(n, hw.Server):
				assign[n] = Assign{Platform: hw.Server}
			case in.allows(n, hw.PISA):
				assign[n] = Assign{Platform: hw.PISA, Device: in.Topo.Switch.Name}
			case in.allows(n, hw.SmartNIC):
				assign[n] = Assign{Platform: hw.SmartNIC}
			default:
				assign[n] = Assign{Platform: hw.Server}
			}
		}
	}
	bindNICs(in, assign)
	return finishWhole(in, assign, policyEven), nil
}

// placeGreedy starts from the HW-preferred placement but allocates cores
// SLO-aware: first the minimum to meet every chain's t_min (using
// profiles), then spare cores to chains sequentially by index until each
// hits t_max — possibly starving later chains (§5.1).
func placeGreedy(in *Input) (*Result, error) {
	return finish(in, hwPreferredAssign(in), policySequential), nil
}

// placeMinBounce chooses, independently per chain, the assignment that
// minimizes platform transitions (E2's Kernighan-Lin objective), breaking
// ties toward more switch offload. Core allocation is the same even spread
// as HW-preferred.
func placeMinBounce(in *Input) (*Result, error) {
	assign := make(map[*nfgraph.Node]Assign)
	for _, g := range in.Chains {
		best, reason := minBounceChain(in, g)
		if best == nil {
			return infeasible(SchemeMinBounce, reason), nil
		}
		for n, a := range best {
			assign[n] = a
		}
	}
	bindNICs(in, assign)
	return finish(in, assign, policyEven), nil
}

// minBounceChain enumerates per-node platform choices for one chain (only
// PISA/Server choices branch; NFs with a single option are fixed) and
// returns the assignment with the fewest bounces.
func minBounceChain(in *Input, g *nfgraph.Graph) (map[*nfgraph.Node]Assign, string) {
	var flex []*nfgraph.Node
	assign := make(map[*nfgraph.Node]Assign)
	for _, n := range g.Order {
		plats := in.allowedPlatforms(n)
		switch len(plats) {
		case 0:
			return nil, "NF " + n.Name() + " has no available platform"
		case 1:
			assign[n] = Assign{Platform: plats[0]}
		default:
			flex = append(flex, n)
		}
	}
	if len(flex) > 22 {
		return nil, "chain too large for min-bounce enumeration"
	}
	var best map[*nfgraph.Node]Assign
	bestBounces, bestSwitch := 1<<30, -1
	paths := g.Paths() // expand once; the mask loop below walks it 2^|flex| times
	total := 1 << len(flex)
	for mask := 0; mask < total; mask++ {
		ok := true
		for i, n := range flex {
			var p hw.Platform
			if mask&(1<<i) != 0 {
				p = hw.PISA
			} else {
				p = hw.Server
			}
			if !in.allows(n, p) {
				ok = false
				break
			}
			assign[n] = Assign{Platform: p}
		}
		if !ok {
			continue
		}
		fillDevices(in, assign)
		b := bounceCountPaths(paths, assign)
		sw := 0
		for _, a := range assign {
			if a.Platform == hw.PISA {
				sw++
			}
		}
		if b < bestBounces || (b == bestBounces && sw > bestSwitch) {
			bestBounces, bestSwitch = b, sw
			best = cloneAssign(assign)
		}
	}
	return best, ""
}

// fillDevices sets device names for non-server platforms so bounce counting
// can distinguish devices.
func fillDevices(in *Input, assign map[*nfgraph.Node]Assign) {
	for n, a := range assign {
		switch a.Platform {
		case hw.PISA:
			a.Device = in.Topo.Switch.Name
		case hw.SmartNIC:
			if len(in.Topo.SmartNICs) > 0 {
				a.Device = in.Topo.SmartNICs[0].Name
			}
		case hw.OpenFlow:
			if in.Topo.OFSwitch != nil {
				a.Device = in.Topo.OFSwitch.Name
			}
		}
		assign[n] = a
	}
}
