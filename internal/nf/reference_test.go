package nf

import (
	"encoding/binary"
	"fmt"

	"lemur/internal/bpf"
	"lemur/internal/obs"
	"lemur/internal/packet"
)

// Map-backed reference implementations of the stateful NFs, retained from
// the pre-sharding code as the oracle the flowTable-backed versions are held
// byte-identical to (the simulateReference pattern, applied one layer down).
// They live in a test file so no binary carries them; WithReferenceTables
// (export_test.go) binds them in place of the production constructors.
//
// The translation/accounting logic is the original map code; the only
// additions are the ones both backends need to agree on:
//   - deterministic FIFO eviction (an insertion-order key queue next to each
//     capped map) instead of Go map-iteration-order eviction,
//   - the obs counters/gauges, updated at the same points in the same order,
//   - NAT's port-window clamp and int port arithmetic.
//
// These run fine at small scale but are not the production path: at millions
// of entries the per-entry map objects dominate GC work, which is precisely
// what the sharded arenas exist to avoid.

// natRef is the map-backed NAT reference.
type natRef struct {
	base
	natCfg
	nextPort uint16
	out      map[natKey]uint16
	in       map[uint16]natKey
	so       stateObs
	exhC     *obs.Counter

	exhausted uint64
}

func newNATRef(name string, params Params) (NF, error) {
	cfg, err := parseNATCfg(name, params)
	if err != nil {
		return nil, err
	}
	n := &natRef{
		base:   base{name: name, class: "NAT"},
		natCfg: cfg,
		out:    make(map[natKey]uint16),
		in:     make(map[uint16]natKey),
		so:     newStateObs("NAT", name),
		exhC:   natExhaustedCounter(name),
	}
	n.nextPort = n.portBase
	return n, nil
}

// Process mirrors NAT.Process over the flat maps.
func (n *natRef) Process(p *packet.Packet, _ *Env) {
	if !p.HasIPv4 || (!p.HasTCP && !p.HasUDP) {
		return
	}
	srcPort, dstPort := l4Ports(p)
	switch {
	case p.IP.Src.Uint32()&n.inMask == n.inPrefix&n.inMask:
		key := natKey{addr: p.IP.Src, port: srcPort}
		ext, ok := n.out[key]
		if !ok {
			ext, ok = n.allocate(key)
			if !ok {
				p.Drop = true
				n.exhausted++
				n.exhC.Inc()
				return
			}
		}
		p.IP.Src = n.external
		setL4SrcPort(p, ext)
		p.SyncHeaders()
	case p.IP.Dst == n.external:
		key, ok := n.in[dstPort]
		if !ok {
			p.Drop = true
			return
		}
		p.IP.Dst = key.addr
		setL4DstPort(p, key.port)
		p.SyncHeaders()
	}
}

func (n *natRef) allocate(key natKey) (uint16, bool) {
	if len(n.out) >= n.maxEntry {
		return 0, false
	}
	limit := int(n.portBase) + n.maxEntry
	for i := 0; i < n.maxEntry; i++ {
		cand := n.nextPort
		np := int(n.nextPort) + 1
		if np >= limit {
			np = int(n.portBase)
		}
		n.nextPort = uint16(np)
		if _, used := n.in[cand]; !used {
			n.out[key] = cand
			n.in[cand] = key
			return cand, true
		}
	}
	return 0, false
}

// monitorRef is the map-backed Monitor reference.
type monitorRef struct {
	base
	flows map[packet.FiveTuple]*FlowStats
	order []packet.FiveTuple // insertion order, head = oldest live flow
	head  int
	max   int
	so    stateObs

	evicted uint64
}

func newMonitorRef(name string, params Params) (NF, error) {
	return &monitorRef{
		base:  base{name: name, class: "Monitor"},
		flows: make(map[packet.FiveTuple]*FlowStats),
		max:   params.Int("max_flows", 100000),
		so:    newStateObs("Monitor", name),
	}, nil
}

// Process mirrors Monitor.Process with FIFO eviction over the flat map.
func (m *monitorRef) Process(p *packet.Packet, env *Env) {
	tu, err := p.Tuple()
	if err != nil {
		return
	}
	st, ok := m.flows[tu]
	if !ok {
		if m.max > 0 && len(m.flows) >= m.max {
			delete(m.flows, m.order[m.head])
			m.head++
			m.evicted++
			m.so.evicted.Inc()
			if m.head > 1024 && m.head*2 > len(m.order) {
				m.order = append(m.order[:0], m.order[m.head:]...)
				m.head = 0
			}
		}
		st = &FlowStats{}
		if env != nil {
			st.FirstSec = env.NowSec
		}
		m.flows[tu] = st
		m.order = append(m.order, tu)
	}
	st.Packets++
	st.Bytes += uint64(len(p.Data))
	if env != nil {
		st.LastSec = env.NowSec
	}
}

// dedupRef is the map-backed Dedup reference.
type dedupRef struct {
	base
	chunk   int
	cache   map[uint64]uint32
	order   []uint64
	head    int
	nextID  uint32
	maxSize int
	so      stateObs

	evicted uint64
}

func newDedupRef(name string, params Params) (NF, error) {
	chunk, err := parseDedupChunk(name, params)
	if err != nil {
		return nil, err
	}
	return &dedupRef{
		base:    base{name: name, class: "Dedup"},
		chunk:   chunk,
		cache:   make(map[uint64]uint32),
		maxSize: params.Int("cache", 65536),
		so:      newStateObs("Dedup", name),
	}, nil
}

// Process mirrors Dedup.Process with FIFO fingerprint rotation.
func (d *dedupRef) Process(p *packet.Packet, _ *Env) {
	pay := p.Payload()
	for off := 0; off+d.chunk <= len(pay); off += d.chunk {
		fp := fingerprint(pay[off : off+d.chunk])
		if slot, ok := d.cache[fp]; ok {
			binary.BigEndian.PutUint32(pay[off:], 0xDED0DED0)
			binary.BigEndian.PutUint32(pay[off+4:], slot)
			for i := off + dedupShim; i < off+d.chunk; i++ {
				pay[i] = 0
			}
			continue
		}
		if d.maxSize > 0 {
			if len(d.cache) >= d.maxSize {
				delete(d.cache, d.order[d.head])
				d.head++
				d.evicted++
				d.so.evicted.Inc()
				if d.head > 1024 && d.head*2 > len(d.order) {
					d.order = append(d.order[:0], d.order[d.head:]...)
					d.head = 0
				}
			}
			d.cache[fp] = d.nextID
			d.nextID++
			d.order = append(d.order, fp)
		}
	}
}

// lbRef is the map-backed LB reference.
type lbRef struct {
	base
	backends []packet.IPv4Addr
	affinity map[packet.FiveTuple]uint32
	order    []packet.FiveTuple
	head     int
	maxAff   int
	so       stateObs

	evicted uint64
}

func newLBRef(name string, params Params) (NF, error) {
	backends, err := parseLBBackends(name, params)
	if err != nil {
		return nil, err
	}
	maxAff := params.Int("affinity", 65536)
	if maxAff < 0 {
		maxAff = 0
	}
	l := &lbRef{
		base:     base{name: name, class: "LB"},
		backends: backends,
		maxAff:   maxAff,
		so:       newStateObs("LB", name),
	}
	if maxAff > 0 {
		l.affinity = make(map[packet.FiveTuple]uint32)
	}
	return l, nil
}

// Process mirrors LB.Process over the flat affinity map.
func (l *lbRef) Process(p *packet.Packet, _ *Env) {
	tu, err := p.Tuple()
	if err != nil {
		return
	}
	h := tu.Hash()
	var bi uint32
	if l.affinity == nil {
		bi = uint32(h % uint64(len(l.backends)))
	} else if v, ok := l.affinity[tu]; ok {
		bi = v
	} else {
		if len(l.affinity) >= l.maxAff {
			delete(l.affinity, l.order[l.head])
			l.head++
			l.evicted++
			l.so.evicted.Inc()
			if l.head > 1024 && l.head*2 > len(l.order) {
				l.order = append(l.order[:0], l.order[l.head:]...)
				l.head = 0
			}
		}
		bi = uint32(h % uint64(len(l.backends)))
		l.affinity[tu] = bi
		l.order = append(l.order, tu)
	}
	p.IP.Dst = l.backends[bi]
	p.SyncHeaders()
}

// aclRef is the materialising ACL NewACL used to build: every synthetic /24
// allow a Rule of its own, decided by a first-match scan of the whole list.
// ACL holds the same list as a head, a count and a tail;
// TestACLMatchesMaterialised and FuzzACL hold the two to the same verdicts
// and NumRules.
type aclRef struct {
	base
	rules []Rule
}

func newACLRef(name string, params Params) (*aclRef, error) {
	a := &aclRef{base: base{name: name, class: "ACL"}}
	cidr := params.Str("allow_dst", "")
	n := params.Int("rules", 0)
	if n == 0 && cidr == "" {
		n = defaultRuleCount
	}
	a.rules = make([]Rule, 0, max(n, 0)+2)
	if cidr != "" {
		addr, bits, err := bpf.ParseCIDR(cidr)
		if err != nil {
			return nil, fmt.Errorf("nf: ACL %s: %w", name, err)
		}
		a.rules = append(a.rules, Rule{DstAddr: addr, DstMask: bpf.MaskBits(bits)})
	}
	for i := 0; i < n; i++ {
		addr := uint32(10)<<24 | uint32(i)<<8
		a.rules = append(a.rules, Rule{DstAddr: addr, DstMask: bpf.MaskBits(24)})
	}
	if params.Str("default", "deny") == "allow" {
		a.rules = append(a.rules, Rule{}) // match-all allow
	}
	return a, nil
}

func (a *aclRef) NumRules() int { return len(a.rules) }

func (a *aclRef) Process(p *packet.Packet, _ *Env) {
	for i := range a.rules {
		if a.rules[i].Matches(p) {
			p.Drop = a.rules[i].Drop
			return
		}
	}
	p.Drop = true
}

// The references publish occupancy through the same hook as the sharded
// tables (SyncStateObs), so end-of-run gauges match too.
func (n *natRef) syncStateObs()     { n.so.entries.Set(float64(len(n.out))) }
func (m *monitorRef) syncStateObs() { m.so.entries.Set(float64(len(m.flows))) }
func (d *dedupRef) syncStateObs()   { d.so.entries.Set(float64(len(d.cache))) }
func (l *lbRef) syncStateObs() {
	if l.affinity != nil {
		l.so.entries.Set(float64(len(l.affinity)))
	}
}
