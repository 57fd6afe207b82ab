package runtime

import (
	"sort"

	"lemur/internal/metacompiler"
)

// The engine partitions a run by steering-graph connectivity, not by
// cutting individual queues: a worker shard owns whole connected components
// of the chain↔device graph (chains, the servers their subgroups run on,
// and the SmartNICs on their paths). Inside a component, packets hop
// between devices exactly as a one-shard run walks them; across components
// nothing is shared but the ToR switch, whose steering state is read-only
// during an epoch.
// Restricting the serial per-step schedule to one shard's components —
// primaries in ascending index order, chains in ascending slot order — is
// therefore exactly the serial execution on disjoint state, which is what
// makes the parallel result byte-identical rather than merely close.

// simPartition is the ownership map of one run: every index entry, chain
// slot, and SmartNIC is assigned to exactly one worker shard. Rebuilt
// (cheaply) after any mid-run rewire changes the steering graph.
type simPartition struct {
	// workers is the effective shard count: min(requested, components).
	workers int

	ownerOfEntry []int32          // per ix.entries index
	nicOwner     map[string]int32 // per SmartNIC name

	// prims[w] / chains[w] are worker w's owned primary entry indices and
	// chain slots, both ascending — the serial schedule restricted to w.
	prims  [][]int32
	chains [][]int32
}

// buildSimPartition unions chains with the devices their placement and
// steering touch, then greedily packs the resulting components onto up to
// `workers` shards (heaviest component first, onto the least-loaded
// shard). Deterministic: node numbering follows chain slots then
// first-appearance order over Result.Subgroups, Result.NICUses, and the
// index entries, so the same deployment always yields the same partition.
// One worker (or fewer) needs no graph: it owns everything, in index order.
func buildSimPartition(d *metacompiler.Deployment, ix *simIndex, nChains, workers int) *simPartition {
	if workers <= 1 {
		part := &simPartition{
			workers:      1,
			ownerOfEntry: make([]int32, len(ix.entries)),
			nicOwner:     make(map[string]int32, len(d.NICs)),
			prims:        [][]int32{make([]int32, ix.nPrimary)},
			chains:       [][]int32{make([]int32, nChains)},
		}
		for i := range part.prims[0] {
			part.prims[0][i] = int32(i)
		}
		for ci := range part.chains[0] {
			part.chains[0][ci] = int32(ci)
		}
		for name := range d.NICs {
			part.nicOwner[name] = 0
		}
		return part
	}
	devID := make(map[string]int)
	nDevs := 0
	dev := func(name string) int {
		if id, ok := devID[name]; ok {
			return id
		}
		id := nChains + nDevs
		devID[name] = id
		nDevs++
		return id
	}
	entryDev := func(e *simEntry) int {
		if h := e.host(); h != "" {
			return dev(h)
		}
		return -1
	}
	for _, psg := range d.Result.Subgroups {
		if psg.Server != "" {
			dev(psg.Server)
		}
	}
	for _, u := range d.Result.NICUses {
		dev(u.Device)
	}
	for i := range ix.entries {
		entryDev(&ix.entries[i])
	}

	parent := make([]int, nChains+nDevs)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, psg := range d.Result.Subgroups {
		if psg.Server != "" && psg.ChainIdx >= 0 && psg.ChainIdx < nChains {
			union(psg.ChainIdx, devID[psg.Server])
		}
	}
	for _, u := range d.Result.NICUses {
		if u.ChainIdx >= 0 && u.ChainIdx < nChains {
			union(u.ChainIdx, devID[u.Device])
		}
	}

	// Compact component ids in node order; weigh components by their
	// primary-entry count (the per-step work) plus one per chain.
	compOf := make(map[int]int32)
	var weight []int
	comp := func(node int) int32 {
		r := find(node)
		c, ok := compOf[r]
		if !ok {
			c = int32(len(weight))
			compOf[r] = c
			weight = append(weight, 0)
		}
		return c
	}
	for ci := 0; ci < nChains; ci++ {
		weight[comp(ci)]++
	}
	for i := 0; i < ix.nPrimary; i++ {
		if nd := entryDev(&ix.entries[i]); nd >= 0 {
			weight[comp(nd)] += 4
		}
	}
	for node := nChains; node < nChains+nDevs; node++ {
		comp(node) // devices untouched above (e.g. NIC-only) still get ids
	}
	nc := len(weight)

	w := workers
	if w > nc {
		w = nc
	}
	if w < 1 {
		w = 1
	}
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if weight[order[a]] != weight[order[b]] {
			return weight[order[a]] > weight[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]int, w)
	ownerOfComp := make([]int32, nc)
	for _, cid := range order {
		best := 0
		for k := 1; k < w; k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		ownerOfComp[cid] = int32(best)
		load[best] += weight[cid]
	}

	part := &simPartition{
		workers:      w,
		ownerOfEntry: make([]int32, len(ix.entries)),
		nicOwner:     make(map[string]int32, len(d.NICs)),
		prims:        make([][]int32, w),
		chains:       make([][]int32, w),
	}
	for i := range ix.entries {
		owner := int32(0)
		if nd := entryDev(&ix.entries[i]); nd >= 0 {
			owner = ownerOfComp[comp(nd)]
		}
		part.ownerOfEntry[i] = owner
		if i < ix.nPrimary {
			part.prims[owner] = append(part.prims[owner], int32(i))
		}
	}
	for ci := 0; ci < nChains; ci++ {
		owner := ownerOfComp[comp(ci)]
		part.chains[owner] = append(part.chains[owner], int32(ci))
	}
	for name := range d.NICs {
		// A NIC absent from the steering graph (no uses) stays unowned;
		// the walk's ownership assertion rejects any frame steered at it.
		if id, ok := devID[name]; ok {
			part.nicOwner[name] = ownerOfComp[comp(id)]
		}
	}
	return part
}
