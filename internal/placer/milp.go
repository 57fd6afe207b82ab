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
// via branch and bound over the LP relaxation. allocateMILP is finish's
// policyMILP arm and only chooses Cores: like every other policy's, its
// allocation then passes the latency checks and gets its rates from the
// rate LP (which, the cores fixed, reaches the same objective).
func (ev *evalScratch) allocateMILP() (string, bool) {
	in, res, tmin := ev.in, ev.res, ev.p.tmins
	nChains := len(in.Chains)
	nSubs := len(res.Subgroups)
	nVars := nChains + nSubs // x_0..x_{n-1}, then k per subgroup
	f := in.clockHz()
	bits := in.frameBits()

	prob := lp.Problem{C: make([]float64, nVars)}
	copy(prob.C, ev.p.ones) // the rate LP's objective: Σ x_i
	integer := make([]bool, nVars)
	for s := 0; s < nSubs; s++ {
		integer[nChains+s] = true
	}
	newRow := func() []float64 { return make([]float64, nVars) }
	addRow := func(row []float64, b float64) {
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, b)
	}

	// Subgroup capacity coupling and per-subgroup core bounds.
	for s, sg := range res.Subgroups {
		i := sg.ChainIdx
		coef := sg.Weight * sg.Cycles / bits / f // cores per bps
		row := newRow()
		row[i] = coef * milpRateUnit
		row[nChains+s] = -1
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

	// Per-server core budgets, in topology order.
	for o, cores := range ev.p.srvCores {
		row := newRow()
		any := false
		for s := range res.Subgroups {
			if ev.srvOf[s] == o {
				row[nChains+s] = 1
				any = true
			}
		}
		if any {
			addRow(row, float64(cores))
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
		addRow(row, (ub-tmin[i])/milpRateUnit)
	}

	// Link constraints: the rate LP's rows, widened by the core variables.
	ev.resetRows()
	if reason, ok := ev.linkRows(tmin); !ok {
		return reason, false
	}
	for _, l := range ev.links {
		row := newRow()
		copy(row, l.visits)
		addRow(row, l.spare/milpRateUnit)
	}

	sol, err := lp.SolveMILP(prob, integer, 0)
	if err != nil {
		return fmt.Sprintf("MILP: %v", err), false
	}
	for s, sg := range res.Subgroups {
		sg.Cores = int(math.Round(sol.X[nChains+s]))
	}
	return "", true
}

// milpRateUnit is the unit of the MILP's rate variables, 1 Gbps. With the
// coupling rows divided by f the program reads in Gbps and cores; written in
// bps its coefficients span 1e-10..1e10, and the simplex's absolute 1e-9
// tolerances take phase-1 round-off for infeasibility.
const milpRateUnit = 1e9

// placeMILP runs the Lemur pipeline with exact MILP core allocation instead
// of the greedy/LP split — the reproduction of the paper's MILP artifact.
// It is slower but gives a provably optimal allocation for the chosen
// structure.
func placeMILP(in *Input) (*Result, error) {
	base, err := lemurHeuristic(in, policyMarginal)
	if err != nil || !base.Feasible {
		return base, err
	}
	milp := resolveMILP(in, base)
	if !milp.Feasible {
		// Fall back to the heuristic allocation, which the attempt left alone.
		base.Reason = "milp fallback: " + milp.Reason
		return base, nil
	}
	return milp, nil
}

// resolveMILP re-solves base's core allocation exactly on the heuristic's
// structure. The MILP writes Cores, so it works on copies of base's
// subgroups: base stays what the heuristic returned, whatever the verdict.
func resolveMILP(in *Input, base *Result) *Result {
	milp := &Result{Assign: base.Assign, Breaks: base.Breaks, NICUses: base.NICUses,
		Subgroups: make([]*Subgroup, len(base.Subgroups))}
	for i, sg := range base.Subgroups {
		c := *sg
		milp.Subgroups[i] = &c
	}
	newEvalScratch(in).finishResult(milp, policyMILP)
	return milp
}
