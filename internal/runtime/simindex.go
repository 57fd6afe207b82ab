package runtime

import (
	"sort"

	"lemur/internal/bess"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/placer"
)

// simEntry is one queue/budget accounting unit of the simulator: a primary
// subgroup (carrying core shares) or, rarely, an orphan subgroup installed in
// a pipeline without resolvable core accounting (zero budget: its queue is
// never drained, matching the reference engine's treatment).
type simEntry struct {
	sub   *bess.Subgroup
	psg   *placer.Subgroup // nil for orphans
	pipe  *bess.Pipeline   // hosting pipeline (nil for unplaced orphans)
	srv   *hw.ServerSpec   // nil for orphans
	cross bool             // true when the subgroup runs off the NIC socket
}

// host names the server the entry's subgroup runs on ("" for an unplaced
// orphan) — the device a crash of which takes the entry down, and the node
// the partition attaches it to.
func (e *simEntry) host() string {
	switch {
	case e.srv != nil:
		return e.srv.Name
	case e.pipe != nil:
		return e.pipe.Server.Name
	}
	return ""
}

// simIndex precomputes the dense dispatch tables the hot loop needs: the
// per-hop map[*bess.Subgroup] lookups and the quadratic pipelineOf/primaryOf
// scans of the original engine become slice indexing. Built once per
// deployment and cached on the Testbed.
type simIndex struct {
	entries  []simEntry
	nPrimary int // entries[:nPrimary] are the budgeted primaries, name-sorted

	// byKey maps pathKey(spi,si) to an entry index: -1 = not installed,
	// -2 = the key is bound by more than one pipeline (fall back per hop).
	// keyPipe guards against a frame reaching a pipeline that does not own
	// the binding. nil when the key space is too large for a dense table.
	byKey   []int32
	keyPipe []*bess.Pipeline

	// idxOf resolves any installed or compiled subgroup (including merge
	// aliases) to its accounting entry; the per-hop fallback path.
	idxOf map[*bess.Subgroup]int32
}

// denseKeyLimit bounds the dense table: pathKey = spi<<8|si and the
// metacompiler strides SPIs by 64 per chain, so real deployments sit far
// below this; a synthetic one past it falls back to the map.
const denseKeyLimit = 1 << 18

func buildSimIndex(d *metacompiler.Deployment) (*simIndex, error) {
	in := d.Input
	ix := &simIndex{idxOf: make(map[*bess.Subgroup]int32)}

	// Primaries sorted by name: this is also the rng cost-draw order, so it
	// must match the reference engine exactly.
	var prims []*bess.Subgroup
	for sub := range d.SubgroupOf {
		if len(sub.Shares) == 0 {
			continue // alias
		}
		prims = append(prims, sub)
	}
	sort.Slice(prims, func(i, j int) bool { return prims[i].Name < prims[j].Name })
	ix.nPrimary = len(prims)

	// Hosting pipeline per subgroup, one linear pass instead of a per-hop
	// scan over every pipeline's subgroups.
	pipeOf := make(map[*bess.Subgroup]*bess.Pipeline)
	var plNames []string
	for name := range d.Pipelines {
		plNames = append(plNames, name)
	}
	sort.Strings(plNames)
	for _, name := range plNames {
		pl := d.Pipelines[name]
		for _, sg := range pl.Subgroups() {
			pipeOf[sg] = pl
		}
	}

	primOfPsg := make(map[*placer.Subgroup]int32)
	for i, sub := range prims {
		psg := d.SubgroupOf[sub]
		srv, err := in.Topo.ServerByName(psg.Server)
		if err != nil {
			return nil, err
		}
		ix.entries = append(ix.entries, simEntry{
			sub: sub, psg: psg, pipe: pipeOf[sub], srv: srv,
			cross: crossSocket(srv, d.Shares[psg]),
		})
		ix.idxOf[sub] = int32(i)
		if _, dup := primOfPsg[psg]; !dup {
			primOfPsg[psg] = int32(i)
		}
	}

	// Merge aliases resolve to their primary's entry.
	for sub, psg := range d.SubgroupOf {
		if _, done := ix.idxOf[sub]; done {
			continue
		}
		if pi, ok := primOfPsg[psg]; ok {
			ix.idxOf[sub] = pi
		}
	}

	// Installed bindings: key table plus orphan entries for any subgroup
	// with no resolvable primary (zero budget — parked packets are only
	// ever dropped on overflow, as in the reference engine).
	type bind struct {
		key uint64
		sub *bess.Subgroup
		pl  *bess.Pipeline
	}
	var binds []bind
	maxKey := uint64(0)
	for _, name := range plNames {
		pl := d.Pipelines[name]
		for _, b := range pl.PathBindings() {
			key := uint64(b.SPI)<<8 | uint64(b.SI)
			if key > maxKey {
				maxKey = key
			}
			binds = append(binds, bind{key, b.Sub, pl})
			if _, ok := ix.idxOf[b.Sub]; !ok {
				ix.idxOf[b.Sub] = int32(len(ix.entries))
				ix.entries = append(ix.entries, simEntry{sub: b.Sub, pipe: pl})
			}
		}
	}
	if maxKey < denseKeyLimit {
		ix.byKey = make([]int32, maxKey+1)
		for i := range ix.byKey {
			ix.byKey[i] = -1
		}
		ix.keyPipe = make([]*bess.Pipeline, maxKey+1)
		for _, b := range binds {
			if ix.keyPipe[b.key] != nil && ix.keyPipe[b.key] != b.pl {
				ix.byKey[b.key] = -2 // bound by two pipelines: resolve per hop
				continue
			}
			ix.keyPipe[b.key] = b.pl
			ix.byKey[b.key] = ix.idxOf[b.sub]
		}
	}
	return ix, nil
}

// lookup resolves a (pipeline, SPI, SI) hop to its accounting entry index,
// or -1 when the pipeline has no subgroup for the path.
func (ix *simIndex) lookup(pl *bess.Pipeline, spi uint32, si uint8) int32 {
	key := uint64(spi)<<8 | uint64(si)
	if ix.byKey != nil && key < uint64(len(ix.byKey)) {
		if idx := ix.byKey[key]; idx >= 0 && ix.keyPipe[key] == pl {
			return idx
		}
	}
	sub := pl.SubgroupFor(spi, si)
	if sub == nil {
		return -1
	}
	if idx, ok := ix.idxOf[sub]; ok {
		return idx
	}
	return -1
}

// simIndexLazy builds (once) and returns the testbed's dispatch index.
func (tb *Testbed) simIndexLazy() (*simIndex, error) {
	tb.simOnce.Do(func() { tb.simIdx, tb.simErr = buildSimIndex(tb.D) })
	return tb.simIdx, tb.simErr
}
