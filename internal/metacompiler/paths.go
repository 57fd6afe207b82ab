package metacompiler

import (
	"fmt"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/placer"
)

// ServicePath is one linearized NF chain with its NSH identity (§4.1): a
// service path index plus a service index that counts down from Length as
// the packet traverses NFs.
type ServicePath struct {
	SPI      uint32
	ChainIdx int
	Weight   float64
	Nodes    []*nfgraph.Node
	// OwnedFrom is the position from which this path installs its own
	// entries; earlier positions are shared with (and installed by) an
	// earlier path that has the same prefix.
	OwnedFrom int
}

// Length is the number of NFs on the path (initial SI value).
func (sp *ServicePath) Length() int { return len(sp.Nodes) }

// SIAt returns the service index a packet carries when it reaches position
// k of the path.
func (sp *ServicePath) SIAt(k int) uint8 { return uint8(sp.Length() - k) }

// segment is a maximal run of path positions on one device, additionally
// split after branch nodes and before merge nodes so segments align with
// the Placer's subgroups.
type segment struct {
	start, end int // positions [start, end)
	platform   hw.Platform
	device     string
}

// SPIs are chainIdx*spiStride + pathIdx + 1 so chains can hold up to
// spiStride paths.
const spiStride = 64

// admitPaths builds the service paths of the chain slots [from,
// len(in.Chains)) — every slot for Compile, the admitted tail for Apply.
func admitPaths(in *placer.Input, from int) ([][]*ServicePath, error) {
	out := make([][]*ServicePath, 0, len(in.Chains)-from)
	for ci := from; ci < len(in.Chains); ci++ {
		sps, err := chainServicePaths(in.Chains[ci], ci)
		if err != nil {
			return nil, err
		}
		out = append(out, sps)
	}
	return out, nil
}

// chainServicePaths builds one chain's service paths for slot ci (SPI
// assignment and prefix ownership). The SPI range is a pure function of the
// slot index, so paths for a chain admitted later (Apply) are identical to
// what a from-scratch Compile at the same slot would produce.
func chainServicePaths(g *nfgraph.Graph, ci int) ([]*ServicePath, error) {
	paths := g.Paths()
	if len(paths) >= spiStride {
		return nil, fmt.Errorf("metacompiler: chain %s has %d linear paths (max %d)",
			g.Chain.Name, len(paths), spiStride-1)
	}
	sps := make([]*ServicePath, len(paths))
	for pi, p := range paths {
		sp := &ServicePath{
			SPI:      uint32(ci*spiStride + pi + 1),
			ChainIdx: ci,
			Weight:   p.Weight,
			Nodes:    p.Nodes,
		}
		// Longest common prefix with any earlier path of the chain.
		for qi := 0; qi < pi; qi++ {
			lcp := commonPrefix(sps[qi].Nodes, p.Nodes)
			if lcp > sp.OwnedFrom {
				sp.OwnedFrom = lcp
			}
		}
		sps[pi] = sp
	}
	return sps, nil
}

func commonPrefix(a, b []*nfgraph.Node) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// segments splits a service path into device runs aligned with subgroup
// boundaries, honouring the Placer's explicit split marks.
func segments(sp *ServicePath, assign map[*nfgraph.Node]placer.Assign, breaks map[*nfgraph.Node]bool) []segment {
	var out []segment
	i := 0
	for i < len(sp.Nodes) {
		a := assign[sp.Nodes[i]]
		j := i + 1
		for j < len(sp.Nodes) {
			prev, next := sp.Nodes[j-1], sp.Nodes[j]
			na := assign[next]
			if na.Platform != a.Platform || na.Device != a.Device {
				break
			}
			if prev.IsBranch() || next.IsMerge() || breaks[next] {
				break
			}
			j++
		}
		out = append(out, segment{start: i, end: j, platform: a.Platform, device: a.Device})
		i = j
	}
	return out
}

// branchTargetsAt returns, for a branch node at position k of path sp, the
// retag targets: one per out-edge, resolved to the service path owning that
// continuation.
type branchTarget struct {
	filter string
	weight float64
	spi    uint32
	si     uint8
}

func branchTargetsAt(sp *ServicePath, k int, chainPaths []*ServicePath) []branchTarget {
	node := sp.Nodes[k]
	var out []branchTarget
	for _, e := range node.Outs {
		// Find the first path sharing sp's prefix through k and continuing
		// with e.Node — that path owns the continuation.
		for _, cand := range chainPaths {
			if len(cand.Nodes) <= k+1 {
				continue
			}
			if commonPrefix(cand.Nodes, sp.Nodes) < k+1 {
				continue
			}
			if cand.Nodes[k+1] != e.Node {
				continue
			}
			out = append(out, branchTarget{
				filter: e.Filter,
				weight: e.Weight,
				spi:    cand.SPI,
				si:     cand.SIAt(k + 1),
			})
			break
		}
	}
	return out
}
