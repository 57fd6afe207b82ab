package nf

import (
	"fmt"
	"slices"

	"lemur/internal/bpf"
	"lemur/internal/packet"
)

// WithReferenceTables runs f with the four stateful classes' registry
// constructors swapped for the map-backed references (reference_test.go), so
// whatever f builds through the registry — nf.New, a metacompiler.Compile —
// binds the oracle tables; the production constructors are back when it
// returns. The registry is process-wide: not for parallel tests.
func WithReferenceTables(f func()) {
	refs := map[string]func(string, Params) (NF, error){
		"NAT": newNATRef, "Monitor": newMonitorRef, "Dedup": newDedupRef, "LB": newLBRef,
	}
	for class, ref := range refs {
		meta, prod := Registry[class], Registry[class].New
		meta.New = ref
		defer func() { meta.New = prod }()
	}
	f()
}

// The accessors below read NF state only this package's tests inspect; no
// production caller needs them, so they live here rather than in the NFs'
// files.

// NumRules returns the table size.
func (a *acl) NumRules() int { return len(a.head) + a.synthetic + len(a.tail) }

// Backend returns the backend a flow maps to.
func (l *LB) Backend(tu packet.FiveTuple) packet.IPv4Addr {
	return l.backends[tu.Hash()%uint64(len(l.backends))]
}

// Stats returns the counters for a flow, or nil if unseen. The pointer
// aliases the flow table's arena and is invalidated by the next Process call
// that inserts or evicts a flow.
func (m *Monitor) Stats(tu packet.FiveTuple) *flowStats {
	return m.flows.get(tu)
}

// AddRoute installs a route for cidr to the given port.
func (f *ipv4Fwd) AddRoute(cidr string, port int, nextHop packet.MAC) error {
	addr, bits, err := bpf.ParseCIDR(cidr)
	if err != nil {
		return fmt.Errorf("nf: IPv4Fwd %s: %w", f.name, err)
	}
	if f.tables[bits] == nil {
		f.tables[bits] = make(map[uint32]fwdEntry)
		at := 0
		for at < len(f.lens) && f.lens[at] > bits {
			at++
		}
		f.lens = slices.Insert(f.lens, at, bits)
	}
	f.tables[bits][addr&bpf.MaskBits(bits)] = fwdEntry{port: port, nextHop: nextHop}
	return nil
}
