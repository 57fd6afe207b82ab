package placer

import (
	"fmt"
	"math"

	"lemur/internal/lp"
)

// The paper's companion artifact includes an MILP formulation of the
// run-to-completion placement problem (§3.1): it can jointly optimize core
// allocation and rates exactly, but cannot check the PISA stage constraint
// (that requires invoking the real compiler). We reproduce that split: the
// Lemur pipeline fixes the assignment and subgroup structure (with the
// compiler in the loop), and allocateMILP solves the remaining joint
// integer program
//
//	max  Σ_i x_i                         (x_i = r_i − t_min,i ≥ 0)
//	s.t. (x_i + t_min,i)·w_s·c_s / bits ≤ k_s·f     ∀ subgroup s of chain i
//	     Σ_{s on server v} k_s ≤ workers(v)         ∀ server v
//	     1 ≤ k_s, and k_s ≤ 1 if s is not replicable
//	     x_i ≤ min(t_max, NIC caps, ingress port) − t_min,i
//	     Σ_i m_{i,d}·(x_i + t_min,i) ≤ C_d          ∀ device link d
//	     k_s integer
//
// via branch and bound over the LP relaxation.
func allocateMILP(in *Input, res *Result) (string, bool) {
	nChains := len(in.Chains)
	nSubs := len(res.Subgroups)
	nVars := nChains + nSubs // x_0..x_{n-1}, then k per subgroup
	f := in.clockHz()
	bits := in.frameBits()

	prob := lp.Problem{C: make([]float64, nVars)}
	integer := make([]bool, nVars)
	for i := 0; i < nChains; i++ {
		prob.C[i] = 1
	}
	for s := 0; s < nSubs; s++ {
		integer[nChains+s] = true
	}
	newRow := func() []float64 { return make([]float64, nVars) }
	addRow := func(row []float64, b float64) {
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, b)
	}

	tmin := make([]float64, nChains)
	for i, g := range in.Chains {
		tmin[i] = g.Chain.SLO.TMinBps
	}

	// Subgroup capacity coupling and per-subgroup core bounds.
	for s, sg := range res.Subgroups {
		i := sg.ChainIdx
		coef := sg.Weight * sg.Cycles / bits
		row := newRow()
		row[i] = coef
		row[nChains+s] = -f
		addRow(row, -tmin[i]*coef)

		lo := newRow()
		lo[nChains+s] = -1
		addRow(lo, -1) // k_s >= 1
		if !sg.Replicable {
			hi := newRow()
			hi[nChains+s] = 1
			addRow(hi, 1) // k_s <= 1
		}
	}

	// Per-server core budgets.
	for _, srv := range in.Topo.Servers {
		row := newRow()
		any := false
		for s, sg := range res.Subgroups {
			if sg.Server == srv.Name {
				row[nChains+s] = 1
				any = true
			}
		}
		if any {
			addRow(row, float64(srv.WorkerCores()))
		}
	}

	// Per-chain rate upper bounds (tmax, SmartNIC ceilings, ingress port).
	for i, g := range in.Chains {
		ub := minF(g.Chain.SLO.TMaxBps, in.Topo.Switch.PortCapacityBps)
		for _, u := range res.NICUses {
			if u.ChainIdx == i {
				ub = minF(ub, in.nicRateBps(u))
			}
		}
		if ub < tmin[i] {
			return fmt.Sprintf("chain %s: hard capacity %.3g < t_min %.3g", g.Chain.Name, ub, tmin[i]), false
		}
		row := newRow()
		row[i] = 1
		addRow(row, ub-tmin[i])
	}

	// Link constraints.
	type link struct {
		cap    float64
		visits []float64
	}
	links := map[string]*link{}
	visit := func(dev string, cap float64, chain int, w float64) {
		l := links[dev]
		if l == nil {
			l = &link{cap: cap, visits: make([]float64, nChains)}
			links[dev] = l
		}
		l.visits[chain] += w
	}
	for _, sg := range res.Subgroups {
		srv, err := in.Topo.ServerByName(sg.Server)
		if err != nil {
			return err.Error(), false
		}
		visit(sg.Server, srv.NICs[0].CapacityBps, sg.ChainIdx, sg.Weight)
	}
	for _, u := range res.NICUses {
		nic, err := in.Topo.SmartNICByName(u.Device)
		if err != nil {
			return err.Error(), false
		}
		visit(u.Device, nic.CapacityBps, u.ChainIdx, u.Weight)
	}
	for dev, l := range links {
		fixed := 0.0
		for i, m := range l.visits {
			fixed += m * tmin[i]
		}
		if fixed > l.cap+1e-6 {
			return fmt.Sprintf("link %s: t_min traffic exceeds capacity", dev), false
		}
		row := newRow()
		copy(row, l.visits)
		addRow(row, l.cap-fixed)
	}

	sol, err := lp.SolveMILP(prob, integer, 0)
	if err != nil {
		return fmt.Sprintf("MILP: %v", err), false
	}
	for s, sg := range res.Subgroups {
		sg.Cores = int(math.Round(sol.X[nChains+s]))
	}
	res.ChainRates = make([]float64, nChains)
	res.Marginal = sol.Value
	res.PredictedAggregate = 0
	for i := range res.ChainRates {
		res.ChainRates[i] = tmin[i] + sol.X[i]
		res.PredictedAggregate += res.ChainRates[i]
	}
	return "", true
}

// placeMILP runs the Lemur pipeline with exact MILP core allocation instead
// of the greedy/LP split — the reproduction of the paper's MILP artifact.
// It is slower but gives a provably optimal allocation for the chosen
// structure.
func placeMILP(in *Input) (*Result, error) {
	base, err := lemurHeuristic(in, policyMarginal)
	if err != nil {
		return nil, err
	}
	if !base.Feasible {
		return base, nil
	}
	// Re-solve the allocation exactly on the heuristic's structure.
	milp := &Result{Assign: base.Assign, Breaks: base.Breaks, Stages: base.Stages,
		Subgroups: base.Subgroups, NICUses: base.NICUses}
	if reason, ok := allocateMILP(in, milp); !ok {
		// Fall back to the heuristic allocation.
		base.Reason = "milp fallback: " + reason
		return base, nil
	}
	ev := newEvalScratch(in)
	if reason, ok := ev.check(milp, ev.checkLatency); !ok {
		base.Reason = "milp fallback: " + reason
		return base, nil
	}
	milp.Feasible = true
	return milp, nil
}
