package nf

import (
	"fmt"

	"lemur/internal/bpf"
	"lemur/internal/packet"
)

// LB is a layer-4 load balancer: it hashes the flow 5-tuple to pick a
// backend and rewrites the destination address. Flow-to-backend affinity is
// stable because the hash is deterministic.
//
// Like production L4 balancers it also keeps a per-flow affinity table (a
// sharded flowTable) pinning each live flow to its backend, so a backend
// set change would not reshuffle established flows. In this reproduction
// the backend set is static, so a memoized entry always agrees with the
// hash — the table exists to carry realistic per-flow state (and its
// eviction churn) into the million-flow scale experiments without changing
// any packet output.
type LB struct {
	base
	backends []packet.IPv4Addr
	affinity *flowTable[packet.FiveTuple, uint32]
	maxAff   int
	so       stateObs

	// Evicted counts affinity entries rotated out of a full table.
	Evicted uint64
}

// parseLBBackends resolves the backend list both implementations share.
func parseLBBackends(name string, params Params) ([]packet.IPv4Addr, error) {
	var backends []packet.IPv4Addr
	for _, s := range params.strSlice("backends") {
		addr, bits, err := bpf.ParseCIDR(s + "/32")
		if err != nil || bits != 32 {
			return nil, fmt.Errorf("nf: LB %s: bad backend %q", name, s)
		}
		backends = append(backends, packet.AddrFromUint32(addr))
	}
	if len(backends) == 0 {
		n := params.int("n_backends", 4)
		if n <= 0 {
			return nil, fmt.Errorf("nf: LB %s: needs at least one backend", name)
		}
		for i := 1; i <= n; i++ {
			backends = append(backends, packet.IPv4Addr{192, 168, 100, byte(i)})
		}
	}
	return backends, nil
}

// newLB builds the load balancer. Params: "backends" (list of IPs) or
// "n_backends" (generate that many under 192.168.100.0/24, default 4), and
// "affinity" (per-flow affinity table cap, default 65536; 0 disables the
// table and falls back to pure hashing).
func newLB(name string, params Params) (NF, error) {
	backends, err := parseLBBackends(name, params)
	if err != nil {
		return nil, err
	}
	maxAff := params.int("affinity", 65536)
	if maxAff < 0 {
		maxAff = 0
	}
	lb := &LB{
		base:     base{name: name, class: "LB"},
		backends: backends,
		maxAff:   maxAff,
		so:       newStateObs("LB", name),
	}
	if maxAff > 0 {
		lb.affinity = newFlowTable[packet.FiveTuple, uint32](maxAff, true, packet.FiveTuple.Hash)
	}
	return lb, nil
}

// Process rewrites the destination to the selected backend, pinning the
// flow's choice in the affinity table.
func (l *LB) Process(p *packet.Packet, _ *Env) {
	tu, err := p.Tuple()
	if err != nil {
		return
	}
	var bi uint32
	if l.affinity == nil {
		bi = uint32(tu.Hash() % uint64(len(l.backends)))
	} else if pe := l.affinity.get(tu); pe != nil {
		bi = *pe
	} else {
		if l.affinity.count() >= l.maxAff {
			l.affinity.evictOldest()
			l.Evicted++
			l.so.evicted.Inc()
		}
		bi = uint32(tu.Hash() % uint64(len(l.backends)))
		*l.affinity.insert(tu) = bi
	}
	p.IP.Dst = l.backends[bi]
	p.SyncHeaders()
}

// AffinityFlows returns the number of pinned flows.
func (l *LB) AffinityFlows() int {
	if l.affinity == nil {
		return 0
	}
	return l.affinity.count()
}
