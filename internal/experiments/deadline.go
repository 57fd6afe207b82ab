package experiments

import (
	"fmt"
	"strings"

	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// The deadline section (§5.3 extended): a deadline-bearing chain
// simulated across offered-load factors, once with the EDF drain order the
// deadline slacks induce and once with the forced round-robin baseline,
// for each placement scheme. Per-core service capacity is identical in the
// two arms — only the order queues are drained in differs — so any
// compliance gap at equal throughput is pure scheduling.
//
// The section does not use the five canonical chains: their heavy NFs (Dedup
// at ~31k worst-case cycles, Encrypt at ~8.8k) cost more than the two
// scheduling quanta of credit a subgroup can bank per step at testbed core
// counts, so their queues never drain and every load point degenerates to
// zero egress. Instead it builds latencyChainSpec below, shaped so the
// round-robin order is genuinely different from the EDF order (see the
// comment there) and the bottleneck subgroups stay within their credit.

// Deadline chain geometry: latencyHops server hops, each split into
// its own subgroup by a PISA-pinned IPv4Fwd between consecutive hops. The
// two ACL hops at positions latencyHeavyLo/Hi are the near-capacity pair;
// the Limiter hops elsewhere are overprovisioned pass-throughs.
const (
	latencyHops    = 9
	latencyHeavyLo = 4
	latencyHeavyHi = 5
)

// latencyRestrict pins the deadline chain's NF types: ACL and Limiter must
// stay on the server (they are the queues being scheduled), IPv4Fwd on the
// switch (it is the subgroup separator).
var latencyRestrict = map[string][]hw.Platform{
	"ACL":     {hw.Server},
	"Limiter": {hw.Server},
	"IPv4Fwd": {hw.PISA},
}

// latencyChainSpec emits the deadline-bearing chain: a linear run of
// latencyHops server NFs, every consecutive pair separated by a PISA-pinned
// IPv4Fwd so each server NF lands in its own scheduler subgroup.
//
// The shape is chosen so the legacy round-robin drain order differs from
// the EDF order. Round-robin sweeps subgroups in install-name order
// ("spiN.siM", lexicographic), and NSH service indices decrement toward
// the chain tail — so for short chains name order is already tail-first
// and coincides with ascending-slack EDF. With nine server hops the
// indices reach double digits and the lexicographic sort inverts:
// "si11" < "si9", putting the ACL hop at position 4 ahead of the sweep and
// the equally-provisioned ACL hop at position 5 at the very end. Under
// round-robin, packets drained from hop 4 consume hop 5's credit before
// hop 5's own backlog is served — the queue-jump EDF eliminates by
// draining least-slack (most-downstream) subgroups first.
func latencyChainSpec(tminBps, dmaxSec float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, `
chain lat1 {
  slo { tmin = %.0f  tmax = 100000000000  dmax = %.9f }
  aggregate { src = 10.50.0.0/16  dst = 172.16.0.0/12 }
`, tminBps, dmaxSec)
	var names []string
	for h := 1; h <= latencyHops; h++ {
		var n string
		if h == latencyHeavyLo || h == latencyHeavyHi {
			n = fmt.Sprintf("a%d", h)
			fmt.Fprintf(&b, "  %s = ACL(allow_dst = \"172.16.0.0/12\", rules = 1024)\n", n)
		} else {
			n = fmt.Sprintf("l%d", h)
			fmt.Fprintf(&b, "  %s = Limiter()\n", n)
		}
		names = append(names, n)
		if h < latencyHops {
			f := fmt.Sprintf("f%d", h)
			fmt.Fprintf(&b, "  %s = IPv4Fwd()\n", f)
			names = append(names, f)
		}
	}
	for j := 0; j+1 < len(names); j++ {
		fmt.Fprintf(&b, "  %s -> %s\n", names[j], names[j+1])
	}
	b.WriteString("}\n")
	return b.String()
}

// The deadline section's chain SLO. The t_min leaves NIC headroom for the
// nine server↔switch bounces; SW-Preferred's whole-chain server placement
// caps out near 2 Gbps for this chain, so its curve records an explicit
// infeasibility instead — the paper's pure-software throughput penalty,
// stated as a reason. The 200 ms deadline sits between the FIFO sojourn EDF
// sustains through overload and the starvation tail round-robin's
// queue-jumping produces, so compliance separates the policies where the
// load curve saturates.
const (
	deadlineTMinBps = 4e9
	deadlineDMaxSec = 0.2
)

// deadlineLoads spans underload through the saturation knee, where queue
// backlogs make the drain order visible in the tail: the bottleneck ACL pair
// saturates near 4.3x the solved rate on the paper testbed.
var deadlineLoads = []float64{1.0, 2.0, 3.0, 4.0, 4.3, 4.6, 5.0}

// latencyInput builds the placer input for the deadline section's chain.
func (r *Runner) latencyInput() (*placer.Input, error) {
	gs, err := BuildChainsFromSpec(latencyChainSpec(deadlineTMinBps, deadlineDMaxSec))
	if err != nil {
		return nil, fmt.Errorf("experiments: latency chain: %w", err)
	}
	return &placer.Input{
		Topo:             r.Topo,
		DB:               profile.DefaultDB(),
		Chains:           gs,
		Restrict:         latencyRestrict,
		BruteForceBudget: r.BruteForceBudget,
		Parallel:         r.Parallel,
	}, nil
}
