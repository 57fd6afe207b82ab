package nf

import "lemur/internal/packet"

// FlowStats are the per-flow counters Monitor maintains.
type FlowStats struct {
	Packets  uint64
	Bytes    uint64
	FirstSec float64
	LastSec  float64
}

// Monitor collects per-flow statistics (packets, bytes, first/last seen).
//
// The flow table is a sharded flowTable keyed by the five-tuple. When
// the table reaches max_flows the oldest flow (by insertion order) is
// evicted — deterministic FIFO, unlike the original map-backed version that
// deleted whatever key map iteration happened to yield. Determinism matters
// now that eviction is observable through obs counters and the
// sharded/reference identity property tests.
type Monitor struct {
	base
	flows *flowTable[packet.FiveTuple, FlowStats]
	so    stateObs

	// Evicted counts flows dropped from the table when full.
	Evicted uint64
}

// NewMonitor builds the statistics collector. Param "max_flows" caps the
// table (default 100000); a cap ≤ 0 leaves it unbounded, so it never evicts.
func NewMonitor(name string, params Params) (NF, error) {
	return &Monitor{
		base:  base{name: name, class: "Monitor"},
		flows: newFlowTable[packet.FiveTuple, FlowStats](params.Int("max_flows", 100000), true, packet.FiveTuple.Hash),
		so:    newStateObs("Monitor", name),
	}, nil
}

// Process updates the flow's counters; non-IP packets are ignored.
func (m *Monitor) Process(p *packet.Packet, env *Env) {
	tu, err := p.Tuple()
	if err != nil {
		return
	}
	st := m.flows.get(tu)
	if st == nil {
		if m.flows.full() {
			m.flows.evictOldest()
			m.Evicted++
			m.so.evicted.Inc()
		}
		st = m.flows.insert(tu)
		if env != nil {
			st.FirstSec = env.NowSec
		}
	}
	st.Packets++
	st.Bytes += uint64(len(p.Data))
	if env != nil {
		st.LastSec = env.NowSec
	}
}

// Stats returns the counters for a flow, or nil if unseen. The pointer
// aliases the flow table's arena and is invalidated by the next Process call
// that inserts or evicts a flow.
func (m *Monitor) Stats(tu packet.FiveTuple) *FlowStats {
	return m.flows.get(tu)
}

// NumFlows returns the number of tracked flows.
func (m *Monitor) NumFlows() int { return m.flows.count() }
