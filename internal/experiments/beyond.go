package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// beyondSections lists WritePaper's sweeps beyond the paper in print order,
// each at its shipped defaults. A line holds only what is the same at any
// Parallel and SimWorkers: outcomes and counts, never a clock reading.
func beyondSections() []paperSection {
	return []paperSection{
		{"deadline", "Deadline scheduling: EDF vs round-robin", func(r *Runner, d *paperDoc) error {
			d.line("tmin=%v dmax=%v", deadlineTMinBps, deadlineDMaxSec)
			// Each load point runs twice, EDF then round-robin: same seed,
			// same per-core capacity, only the drain order differs.
			var cells []simCell
			for i, load := range deadlineLoads {
				for _, pol := range []string{runtime.SchedEDF, runtime.SchedRR} {
					cells = append(cells, simCell{load, runtime.SimConfig{DurationSec: 1.0, Seed: 1 + int64(i), SchedPolicy: pol}})
				}
			}
			// Every scheme places on one input, so a scheme that places the
			// chain as an earlier one did reuses that scheme's runs.
			in, err := r.latencyInput()
			if err != nil {
				return err
			}
			type simulated struct {
				res  *placer.Result
				sims []*runtime.SimResult
			}
			var done []simulated
			for _, scheme := range []placer.Scheme{placer.SchemeLemur, placer.SchemeHWPreferred, placer.SchemeSWPreferred} {
				res, err := placer.Place(scheme, in)
				if err != nil {
					return err
				}
				if !res.Feasible {
					d.line("%s feasible=false reason=%q", scheme, res.Reason)
					continue
				}
				var sims []*runtime.SimResult
				for _, s := range done {
					if samePlacement(s.res, res) {
						sims = s.sims
						break
					}
				}
				if sims == nil {
					if sims, _, err = r.simulateCells(in, res, cells); err != nil {
						return fmt.Errorf("%s: %w", scheme, err)
					}
					done = append(done, simulated{res, sims})
				}
				for i, load := range deadlineLoads {
					edf, rr := sims[2*i], sims[2*i+1]
					d.line("%s load=%v achieved_edf=%v achieved_rr=%v worst_p99_edf=%v worst_p99_rr=%v compliance_edf=%v compliance_rr=%v",
						scheme, load, sum(edf.AchievedBps), sum(rr.AchievedBps),
						extreme(edf.P99QueueDelaySec, 0, math.Max), extreme(rr.P99QueueDelaySec, 0, math.Max),
						extreme(edf.DeadlineCompliance, 1, math.Min), extreme(rr.DeadlineCompliance, 1, math.Min))
				}
			}
			return nil
		}},
		{"sim", "Simulation sweep: chains [1 2 3], delta 0.5, load factor vs outcome", func(r *Runner, d *paperDoc) error {
			in, _, err := r.input([]int{1, 2, 3}, 0.5)
			if err != nil {
				return err
			}
			res, err := placeFeasible("sim", in)
			if err != nil {
				return err
			}
			// Underload through drop onset.
			loads := []float64{0.6, 0.8, 1.0, 1.2, 1.5, 1.8}
			cells := make([]simCell, len(loads))
			for i, load := range loads {
				cells[i] = simCell{load, runtime.SimConfig{DurationSec: 0.5, Seed: 1 + int64(i)}}
			}
			sims, _, err := r.simulateCells(in, res, cells)
			if err != nil {
				return err
			}
			for i, sim := range sims {
				_, drop := dropShare(sim)
				d.line("load=%v offered=%v achieved=%v drop=%v worst_avg_delay=%v worst_p99_delay=%v",
					loads[i], sum(sim.OfferedBps), sum(sim.AchievedBps), drop,
					extreme(sim.AvgQueueDelaySec, 0, math.Max), extreme(sim.P99QueueDelaySec, 0, math.Max))
			}
			return nil
		}},
		// Three servers, chains {1,2,3}; scale 50 keeps per-step cycle
		// budgets above every chain's per-packet cost, so low-rate expensive
		// chains make progress in the simulator.
		{"failover", "Failover: chains [1 2 3], delta 0.5, k of 3 servers crashed", func(r *Runner, d *paperDoc) error {
			rf := r.on(hw.NewPaperTestbed(hw.WithServers(3)))
			in, _, err := rf.input([]int{1, 2, 3}, 0.5)
			if err != nil {
				return err
			}
			res, err := placeFeasible("failover", in)
			if err != nil {
				return err
			}
			var servers []string
			for _, s := range rf.Topo.Servers {
				servers = append(servers, s.Name)
			}
			sims, _, err := rf.simulateCells(in, res, failoverCells(servers, runtime.SimConfig{DurationSec: 0.25, Scale: 50}))
			if err != nil {
				return err
			}
			for k, sim := range sims {
				d.line("k=%d crashed=%v compliant=%d/%d", k, servers[:k], compliantChains(in, sim), len(in.Chains))
				if fo := sim.Failover; fo != nil {
					drops := 0
					for _, n := range fo.FaultDrops {
						drops += n
					}
					d.line("  at=%v detection=%v reconfig=%v max_downtime=%v fault_drops=%d replace_error=%q rewire=%q",
						failoverAtSec, fo.DetectionDelaySec, fo.ReconfigDelaySec, extreme(fo.DowntimeSec, 0, math.Max),
						drops, fo.ReplaceError, fo.RewireSummary)
				}
			}
			return nil
		}},
		{"churn", "Churn: admission capacity, incremental vs repack", func(r *Runner, d *paperDoc) error {
			base, admits := []int{1, 2}, defaultChurnAdmits(12)
			steps, err := r.churnSweep(base, admits, 0.5, placer.SchemeLemur)
			if err != nil {
				return err
			}
			d.line("base=%v delta=0.5 headroom=%d admits=%v", base, churnHeadroom, admits)
			for _, st := range steps {
				d.line("step=%d base=%d admit=%s base_feasible=%v verdict=%s pinned=%d marginal=%v repack_ok=%v reason=%q",
					st.Step, st.BaseChains, st.ChainName, st.BaseFeasible, st.Outcome, st.Pinned, st.MarginalBps,
					st.FullFeasible, st.Reason)
			}
			d.line("capacity=%d", admittedCapacity(steps))
			return nil
		}},
		{"reconcile", "lemurd reconcile convergence, fake clock", func(r *Runner, d *paperDoc) error {
			pts, err := reconcileSweep(r.Parallel)
			if err != nil {
				return err
			}
			d.line("interval=%v", reconcileInterval.Seconds())
			for _, p := range pts {
				d.line("%s base=%d ops=%d ticks=%d converged=%v converge=%v pinned=%d reconciles=%d applies=%d backoff=%d rejected=%d",
					p.Scenario, p.BaseChains, p.Ops, p.Ticks, p.Converged, p.ConvergeSimSec, p.PinnedSubgroups,
					p.Reconciles, p.Applies, p.BackoffRetries, p.RejectedSpecs)
			}
			return nil
		}},
		// Placement only, with a budget the search never reaches: the sweep
		// measures pruning, not budgets.
		{"place-scale", "Placement scale: fleet size x chain set, all schemes, delta 0.5", func(r *Runner, d *paperDoc) error {
			rs := r.on(r.Topo)
			rs.SkipMeasure = true
			rs.BruteForceBudget = 1 << 30
			cells, err := rs.placeScaleSweep(DefaultPlaceScalePoints(), placer.Schemes())
			if err != nil {
				return err
			}
			for _, c := range cells {
				d.line("servers=%d chains=%v", c.Point.Servers, c.Point.Chains)
				for _, s := range c.Schemes {
					if s.Scheme != string(placer.SchemeOptimal) {
						d.line("  %s feasible=%v aggregate_gbps=%v", s.Scheme, s.Feasible, s.AggregateGbps)
						continue
					}
					visited := s.Evaluated + s.BindRejected
					d.line("  %s feasible=%v aggregate_gbps=%v combinations=%v visited=%d pruned=%d collapsed=%d speedup=%v",
						s.Scheme, s.Feasible, s.AggregateGbps, s.Combinations, visited,
						s.PrunedSubtrees+s.DemandPruned, s.CollapsedSubtrees, s.Combinations/float64(visited))
				}
			}
			return nil
		}},
		// Stateful NFs pinned to servers; chains 2 and 3 carry NAT, LB and
		// Dedup, whose tables the flow population pushes past their caps.
		{"scale", "Flow scale: chains [2 3], delta 0.5, flow count vs state pressure", func(r *Runner, d *paperDoc) error {
			in, res, cells, err := r.scaleCells()
			if err != nil {
				return err
			}
			sims, deps, err := r.simulateCells(in, res, cells)
			if err != nil {
				return err
			}
			for i, sim := range sims {
				nat, exhausted, evicted := 0, uint64(0), uint64(0)
				for _, st := range HarvestNFState(deps[i]) {
					if st.Class == "NAT" {
						nat += st.Entries
					}
					exhausted += st.Exhausted
					evicted += st.Evicted
				}
				packets, drop := dropShare(sim)
				d.line("flows=%d packets=%d duration=%v drop=%v worst_avg_delay=%v worst_p99_delay=%v nat_entries=%d exhausted=%d evictions=%d",
					cells[i].cfg.FlowScale, packets, cells[i].cfg.DurationSec, drop,
					extreme(sim.AvgQueueDelaySec, 0, math.Max), extreme(sim.P99QueueDelaySec, 0, math.Max), nat, exhausted, evicted)
			}
			return nil
		}},
	}
}

// samePlacement reports whether two feasible results, placed on one Input,
// deploy the same dataplane: equal assignments, subgroup breaks, subgroup
// servers and cores, NIC uses and chain rates.
func samePlacement(a, b *placer.Result) bool {
	if !maps.Equal(a.Assign, b.Assign) || !maps.Equal(a.Breaks, b.Breaks) ||
		!slices.Equal(a.ChainRates, b.ChainRates) ||
		len(a.Subgroups) != len(b.Subgroups) || len(a.NICUses) != len(b.NICUses) {
		return false
	}
	for i, sg := range a.Subgroups {
		if o := b.Subgroups[i]; sg.Server != o.Server || sg.Cores != o.Cores {
			return false
		}
	}
	for i, u := range a.NICUses {
		if *u != *b.NICUses[i] {
			return false
		}
	}
	return true
}

// sum totals per-chain values.
func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

// dropShare totals a run's injected packets and the share of them that did
// not egress.
func dropShare(sim *runtime.SimResult) (injected int, drop float64) {
	egressed := 0
	for ci := range sim.Injected {
		injected += sim.Injected[ci]
		egressed += sim.Egressed[ci]
	}
	if injected > 0 {
		drop = float64(injected-egressed) / float64(injected)
	}
	return injected, drop
}

// extreme is the worst of per-chain values by pick, starting from v0:
// math.Max from 0 for delays, math.Min from 1 for deadline compliance.
func extreme(vs []float64, v0 float64, pick func(a, b float64) float64) float64 {
	for _, v := range vs {
		v0 = pick(v0, v)
	}
	return v0
}
