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

	// spans is indexed by SPI: the keys of an SPI from its lowest bound
	// service index to its highest, [lo, lo+n), resolve in
	// slots[off : off+n]. A deployment binds a few SIs of each SPI, so
	// this is 8 bytes an SPI and 16 a key inside a span, where a table over
	// the whole SPI<<8|SI key space was 3 KB an SPI.
	spans []keySpan
	slots []keySlot

	// idxOf resolves any installed or compiled subgroup (including merge
	// aliases) to its accounting entry; the per-hop fallback path.
	idxOf map[*bess.Subgroup]int32
}

// keySpan is one SPI's run of slots; n = 0 for an SPI no pipeline binds.
type keySpan struct {
	off int32
	lo  uint8
	n   uint16
}

// keySlot resolves one (SPI, SI) key: idx is the entry index, -1 for a key
// inside its SPI's span that nothing binds, -2 for a key bound by more than
// one pipeline (resolved per hop); pl is the pipeline that owns the binding,
// guarding against a frame that reaches another one.
type keySlot struct {
	idx int32
	pl  *bess.Pipeline
}

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
			cross: bess.CrossSocket(srv, d.Shares[psg]),
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

	// Installed bindings: the key table, plus orphan entries for any
	// subgroup with no resolvable primary (zero budget — parked packets are
	// only ever dropped on overflow, as in the reference engine). Each
	// pipeline's bindings come sorted; one pass over them finds the largest
	// SPI, the next each SPI's span, then the spans are laid out end to end
	// and a last pass fills their slots.
	binds := make([][]bess.PathBinding, len(plNames))
	maxSPI := -1
	for i, name := range plNames {
		pl := d.Pipelines[name]
		binds[i] = pl.PathBindings()
		for _, b := range binds[i] {
			maxSPI = max(maxSPI, int(b.SPI))
			if _, ok := ix.idxOf[b.Sub]; !ok {
				ix.idxOf[b.Sub] = int32(len(ix.entries))
				ix.entries = append(ix.entries, simEntry{sub: b.Sub, pipe: pl})
			}
		}
	}
	ix.spans = make([]keySpan, maxSPI+1)
	for _, bs := range binds {
		for _, b := range bs {
			sp := &ix.spans[b.SPI]
			switch {
			case sp.n == 0:
				sp.lo, sp.n = b.SI, 1
			case b.SI < sp.lo:
				sp.n += uint16(sp.lo - b.SI)
				sp.lo = b.SI
			case int(b.SI) >= int(sp.lo)+int(sp.n):
				sp.n = uint16(b.SI-sp.lo) + 1
			}
		}
	}
	total := 0
	for i := range ix.spans {
		ix.spans[i].off = int32(total)
		total += int(ix.spans[i].n)
	}
	ix.slots = make([]keySlot, total)
	for i := range ix.slots {
		ix.slots[i].idx = -1
	}
	for i, bs := range binds {
		pl := d.Pipelines[plNames[i]]
		for _, b := range bs {
			sp := ix.spans[b.SPI]
			s := &ix.slots[int(sp.off)+int(b.SI-sp.lo)]
			if s.pl != nil && s.pl != pl {
				s.idx = -2 // bound by two pipelines: resolve per hop
				continue
			}
			s.idx, s.pl = ix.idxOf[b.Sub], pl
		}
	}
	return ix, nil
}

// lookup resolves a (pipeline, SPI, SI) hop to its accounting entry index,
// or -1 when the pipeline has no subgroup for the path.
func (ix *simIndex) lookup(pl *bess.Pipeline, spi uint32, si uint8) int32 {
	if spi < uint32(len(ix.spans)) {
		sp := ix.spans[spi]
		if d := int(si) - int(sp.lo); d >= 0 && d < int(sp.n) {
			if s := ix.slots[int(sp.off)+d]; s.idx >= 0 && s.pl == pl {
				return s.idx
			}
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
