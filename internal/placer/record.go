package placer

import (
	"encoding/json"
	"fmt"
	"math"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
)

// Record is a feasible Result in a form that outlives the process holding
// it: every node is named by its chain slot and node name against the
// Result's Input. Only live slots carry values. A retired slot has no
// assignment, subgroup or NIC use, and its rate and p99 are zero, so a
// Record is sized by what runs rather than by how many slots have retired.
// How the placement was found (PlaceTime, Search) is not kept. JSON
// encodes a Record deterministically; lemurd checkpoints its placement as
// one.
type Record struct {
	// Scheme is the Result's scheme.
	Scheme Scheme `json:"scheme"`
	// Slots is the input's chain count and Retired the length of the
	// Result's Retired marks: the slots below it that Chains does not list
	// are retired, and every slot from it on is live.
	Slots   int `json:"slots"`
	Retired int `json:"retired,omitempty"`
	// Chains holds the live slots, ascending.
	Chains []ChainRecord `json:"chains"`
	// Subgroups and NICUses are the Result's, in its order.
	Subgroups []SubgroupRecord `json:"subgroups,omitempty"`
	NICUses   []NICUseRecord   `json:"nic_uses,omitempty"`
	// Marginal, Aggregate (PredictedAggregate) and Stages are the Result's.
	Marginal  float64 `json:"marginal"`
	Aggregate float64 `json:"aggregate"`
	Stages    int     `json:"stages"`
	// Truncated and SkippedCombos are the Result's.
	Truncated     bool `json:"truncated,omitempty"`
	SkippedCombos int  `json:"skipped_combos,omitempty"`
}

// ChainRecord is one live slot of a Record.
type ChainRecord struct {
	// Slot is the chain's index in Input.Chains.
	Slot int `json:"slot"`
	// Rate is the slot's ChainRates entry (bps), P99 its PredictedP99Sec
	// entry (seconds, +Inf kept).
	Rate float64  `json:"rate"`
	P99  infFloat `json:"p99"`
	// Assign lists the assigned nodes in the chain's topological order.
	Assign []AssignRecord `json:"assign,omitempty"`
	// Breaks names the chain's nodes marked in Result.Breaks, in the same
	// order.
	Breaks []string `json:"breaks,omitempty"`
}

// AssignRecord is one node's Assign.
type AssignRecord struct {
	Node     string      `json:"node"`
	Platform hw.Platform `json:"platform"`
	Device   string      `json:"device,omitempty"`
}

// SubgroupRecord is one Subgroup; Nodes are node names of chain slot Chain.
type SubgroupRecord struct {
	Chain      int      `json:"chain"`
	Nodes      []string `json:"nodes"`
	Server     string   `json:"server"`
	Weight     float64  `json:"weight"`
	Cycles     float64  `json:"cycles"`
	Replicable bool     `json:"replicable,omitempty"`
	Cores      int      `json:"cores"`
}

// NICUseRecord is one NICUse; Node is a node name of chain slot Chain.
type NICUseRecord struct {
	Chain  int     `json:"chain"`
	Node   string  `json:"node"`
	Device string  `json:"device"`
	Weight float64 `json:"weight"`
	Cycles float64 `json:"cycles"`
}

// infFloat is a float64 that JSON carries +Inf in, as the string "+Inf":
// the predicted p99 of a chain with a saturated subgroup.
type infFloat float64

func (f infFloat) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(f), 1) {
		return []byte(`"+Inf"`), nil
	}
	return json.Marshal(float64(f))
}

func (f *infFloat) UnmarshalJSON(b []byte) error {
	if string(b) == `"+Inf"` {
		*f = infFloat(math.Inf(1))
		return nil
	}
	return json.Unmarshal(b, (*float64)(f))
}

// RecordOf encodes res, a feasible placement of in, as a Record. It
// refuses a Result that Decode could not give back exactly: one that is
// infeasible, sized for another input, or holding a node, rate or p99 on a
// slot that is not live.
func RecordOf(in *Input, res *Result) (*Record, error) {
	n := len(in.Chains)
	switch {
	case !res.Feasible:
		return nil, fmt.Errorf("placer: record: placement is infeasible: %s", res.Reason)
	case len(res.ChainRates) != n || len(res.PredictedP99Sec) != n || len(res.Retired) > n:
		return nil, fmt.Errorf("placer: record: result is not sized for the input's %d chains", n)
	}
	rec := &Record{
		Scheme: res.Scheme, Slots: n, Retired: len(res.Retired),
		Marginal: res.Marginal, Aggregate: res.PredictedAggregate, Stages: res.Stages,
		Truncated: res.Truncated, SkippedCombos: res.SkippedCombos,
	}
	assigned, breaks := 0, 0
	for ci, g := range in.Chains {
		if res.IsRetired(ci) {
			if res.ChainRates[ci] != 0 || res.PredictedP99Sec[ci] != 0 {
				return nil, fmt.Errorf("placer: record: retired slot %d has a rate or p99", ci)
			}
			continue
		}
		cr := ChainRecord{Slot: ci, Rate: res.ChainRates[ci], P99: infFloat(res.PredictedP99Sec[ci])}
		for _, nd := range g.Order {
			if a, ok := res.Assign[nd]; ok {
				cr.Assign = append(cr.Assign, AssignRecord{Node: nd.Name(), Platform: a.Platform, Device: a.Device})
				assigned++
			}
			if res.Breaks[nd] {
				cr.Breaks = append(cr.Breaks, nd.Name())
				breaks++
			}
		}
		rec.Chains = append(rec.Chains, cr)
	}
	if assigned != len(res.Assign) || breaks != len(res.Breaks) {
		return nil, fmt.Errorf("placer: record: result marks nodes outside its input's live chains")
	}
	live := func(ci int, nd *nfgraph.Node) error {
		if ci < 0 || ci >= n || res.IsRetired(ci) || in.Chains[ci].Nodes[nd.Name()] != nd {
			return fmt.Errorf("placer: record: node %s is not in live chain slot %d", nd.Name(), ci)
		}
		return nil
	}
	for _, sg := range res.Subgroups {
		sr := SubgroupRecord{Chain: sg.ChainIdx, Nodes: make([]string, len(sg.Nodes)), Server: sg.Server,
			Weight: sg.Weight, Cycles: sg.Cycles, Replicable: sg.Replicable, Cores: sg.Cores}
		for i, nd := range sg.Nodes {
			if err := live(sg.ChainIdx, nd); err != nil {
				return nil, err
			}
			sr.Nodes[i] = nd.Name()
		}
		rec.Subgroups = append(rec.Subgroups, sr)
	}
	for _, u := range res.NICUses {
		if err := live(u.ChainIdx, u.Node); err != nil {
			return nil, err
		}
		rec.NICUses = append(rec.NICUses, NICUseRecord{Chain: u.ChainIdx, Node: u.Node.Name(),
			Device: u.Device, Weight: u.Weight, Cycles: u.Cycles})
	}
	return rec, nil
}

// Decode rebuilds the Result rec records against in, which must hold the
// recorded chains at their slots. A retired slot's graph is read by
// nothing, so any graph may stand in for it.
func (rec *Record) Decode(in *Input) (*Result, error) {
	n := len(in.Chains)
	if rec.Slots != n {
		return nil, fmt.Errorf("placer: record: %d slots, input has %d chains", rec.Slots, n)
	}
	if rec.Retired < 0 || rec.Retired > n {
		return nil, fmt.Errorf("placer: record: %d retired marks for %d slots", rec.Retired, n)
	}
	res := &Result{
		Scheme: rec.Scheme, Feasible: true,
		Assign:          make(map[*nfgraph.Node]Assign),
		ChainRates:      make([]float64, n),
		PredictedP99Sec: make([]float64, n),
		Marginal:        rec.Marginal, PredictedAggregate: rec.Aggregate, Stages: rec.Stages,
		Truncated: rec.Truncated, SkippedCombos: rec.SkippedCombos,
	}
	live := make([]bool, n)
	node := func(ci int, name string) (*nfgraph.Node, error) {
		if ci < 0 || ci >= n || !live[ci] {
			return nil, fmt.Errorf("placer: record: slot %d is not live", ci)
		}
		nd := in.Chains[ci].Nodes[name]
		if nd == nil {
			return nil, fmt.Errorf("placer: record: chain slot %d has no node %q", ci, name)
		}
		return nd, nil
	}
	for i, cr := range rec.Chains {
		if cr.Slot < 0 || cr.Slot >= n || (i > 0 && cr.Slot <= rec.Chains[i-1].Slot) {
			return nil, fmt.Errorf("placer: record: live slots out of order at %d", cr.Slot)
		}
		live[cr.Slot] = true
		res.ChainRates[cr.Slot], res.PredictedP99Sec[cr.Slot] = cr.Rate, float64(cr.P99)
		for _, a := range cr.Assign {
			nd, err := node(cr.Slot, a.Node)
			if err != nil {
				return nil, err
			}
			res.Assign[nd] = Assign{Platform: a.Platform, Device: a.Device}
		}
		for _, name := range cr.Breaks {
			nd, err := node(cr.Slot, name)
			if err != nil {
				return nil, err
			}
			if res.Breaks == nil {
				res.Breaks = make(map[*nfgraph.Node]bool)
			}
			res.Breaks[nd] = true
		}
	}
	for ci := rec.Retired; ci < n; ci++ {
		if !live[ci] {
			return nil, fmt.Errorf("placer: record: slot %d is neither live nor marked retired", ci)
		}
	}
	if rec.Retired > 0 {
		res.Retired = make([]bool, rec.Retired)
		for ci := range res.Retired {
			res.Retired[ci] = !live[ci]
		}
	}
	for _, sr := range rec.Subgroups {
		sg := &Subgroup{ChainIdx: sr.Chain, Nodes: make([]*nfgraph.Node, len(sr.Nodes)), Server: sr.Server,
			Weight: sr.Weight, Cycles: sr.Cycles, Replicable: sr.Replicable, Cores: sr.Cores}
		for i, name := range sr.Nodes {
			nd, err := node(sr.Chain, name)
			if err != nil {
				return nil, err
			}
			sg.Nodes[i] = nd
		}
		res.Subgroups = append(res.Subgroups, sg)
	}
	for _, ur := range rec.NICUses {
		nd, err := node(ur.Chain, ur.Node)
		if err != nil {
			return nil, err
		}
		res.NICUses = append(res.NICUses, &NICUse{ChainIdx: ur.Chain, Node: nd, Device: ur.Device,
			Weight: ur.Weight, Cycles: ur.Cycles})
	}
	return res, nil
}
