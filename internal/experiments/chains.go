// Package experiments reproduces the paper's evaluation (§5): the five
// canonical NF chains of Table 2, the δ-sweep methodology, the scheme
// comparison of Figure 2, the hardware studies of Figure 3, and the
// remaining §5.2/§5.3 experiments (extreme stage config, profiling
// sensitivity, latency SLOs, meta-compiler LoC accounting, placer scaling).
package experiments

import (
	"fmt"
	"math"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// EvalRestrict is Table 3's footnote: IPv4Fwd is artificially P4-only for
// the evaluation.
var EvalRestrict = map[string][]hw.Platform{"IPv4Fwd": {hw.PISA}}

// ChainSpec renders the canonical chain's spec text (Table 2) with the
// given SLO. Chains are numbered 1-5 as in the paper; subchains 6-8 are
// inlined. Each chain classifies on its own /16 source aggregate so the
// ToR classifier can tell them apart.
func ChainSpec(idx int, tminBps, tmaxBps, dmaxSec float64) (string, error) {
	slo := fmt.Sprintf("slo { tmin = %.0f  tmax = %.0f", tminBps, tmaxBps)
	if dmaxSec > 0 {
		slo += fmt.Sprintf("  dmax = %.9f", dmaxSec)
	}
	slo += " }"
	agg := fmt.Sprintf("aggregate { src = 10.%d.0.0/16  dst = 172.16.0.0/12 }", idx)

	switch idx {
	case 1:
		// BPF -> Subchain7 -> BPF -> UrlFilter -> Subchain8, with branches
		// to Subchain8 at both BPF nodes. Sub7 = ACL->Limiter,
		// Sub8 = Detunnel->Encrypt->IPv4Fwd (three instances).
		return fmt.Sprintf(`
chain chain1 {
  %s
  %s
  bpf1 = BPF()
  acl7 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  lim7 = Limiter(rate_mbps = 100000)
  bpf2 = BPF()
  url1 = UrlFilter()
  detA = Detunnel()
  encA = Encrypt()
  fwdA = IPv4Fwd()
  detB = Detunnel()
  encB = Encrypt()
  fwdB = IPv4Fwd()
  detC = Detunnel()
  encC = Encrypt()
  fwdC = IPv4Fwd()
  bpf1 -> [weight = 0.5] acl7
  bpf1 -> [weight = 0.5] detC
  acl7 -> lim7 -> bpf2
  bpf2 -> [weight = 0.5] url1
  bpf2 -> [weight = 0.5] detB
  url1 -> detA -> encA -> fwdA
  detB -> encB -> fwdB
  detC -> encC -> fwdC
}`, slo, agg), nil
	case 2:
		// Encrypt -> LB -> 3xNAT (branched) -> IPv4Fwd.
		return fmt.Sprintf(`
chain chain2 {
  %s
  %s
  enc2 = Encrypt()
  lb2  = LB()
  natA = NAT()
  natB = NAT()
  natC = NAT()
  fwd2 = IPv4Fwd()
  enc2 -> lb2
  lb2 -> natA -> fwd2
  lb2 -> natB -> fwd2
  lb2 -> natC -> fwd2
}`, slo, agg), nil
	case 3:
		// Dedup -> ACL -> Limiter -> LB -> IPv4Fwd.
		return fmt.Sprintf(`
chain chain3 {
  %s
  %s
  ded3 = Dedup()
  acl3 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  lim3 = Limiter(rate_mbps = 100000)
  lb3  = LB()
  fwd3 = IPv4Fwd()
  ded3 -> acl3 -> lim3 -> lb3 -> fwd3
}`, slo, agg), nil
	case 4:
		// Dedup -> ACL -> Monitor -> Tunnel -> BPF -> 3xSub6 (branched) ->
		// IPv4Fwd, Sub6 = LB->Limiter->ACL.
		return fmt.Sprintf(`
chain chain4 {
  %s
  %s
  ded4 = Dedup()
  acl4 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  mon4 = Monitor()
  tun4 = Tunnel()
  bpf4 = BPF()
  lbA  = LB()
  limA = Limiter(rate_mbps = 100000)
  aclA = ACL(allow_dst = "192.168.100.0/24", rules = 1024)
  lbB  = LB()
  limB = Limiter(rate_mbps = 100000)
  aclB = ACL(allow_dst = "192.168.100.0/24", rules = 1024)
  lbC  = LB()
  limC = Limiter(rate_mbps = 100000)
  aclC = ACL(allow_dst = "192.168.100.0/24", rules = 1024)
  fwd4 = IPv4Fwd()
  ded4 -> acl4 -> mon4 -> tun4 -> bpf4
  bpf4 -> [weight = 0.34] lbA
  bpf4 -> [weight = 0.33] lbB
  bpf4 -> [weight = 0.33] lbC
  lbA -> limA -> aclA -> fwd4
  lbB -> limB -> aclB -> fwd4
  lbC -> limC -> aclC -> fwd4
}`, slo, agg), nil
	case 5:
		// ACL -> UrlFilter -> Fast Encrypt -> IPv4Fwd (the SmartNIC chain).
		return fmt.Sprintf(`
chain chain5 {
  %s
  %s
  acl5 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  url5 = UrlFilter()
  fe5  = FastEncrypt()
  fwd5 = IPv4Fwd()
  acl5 -> url5 -> fe5 -> fwd5
}`, slo, agg), nil
	default:
		return "", fmt.Errorf("experiments: no canonical chain %d", idx)
	}
}

// BuildChains parses and builds the graphs for the given canonical chains
// with per-chain t_min values (indexes align with chainIdxs).
func BuildChains(chainIdxs []int, tmins []float64, tmax, dmax float64) ([]*nfgraph.Graph, error) {
	var out []*nfgraph.Graph
	for i, idx := range chainIdxs {
		src, err := ChainSpec(idx, tmins[i], tmax, dmax)
		if err != nil {
			return nil, err
		}
		chains, err := nfspec.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("experiments: chain %d: %w", idx, err)
		}
		g, err := nfgraph.Build(chains[0])
		if err != nil {
			return nil, fmt.Errorf("experiments: chain %d: %w", idx, err)
		}
		out = append(out, g)
	}
	return out, nil
}

// BuildChainsFromSpec parses arbitrary spec text into chain graphs.
func BuildChainsFromSpec(src string) ([]*nfgraph.Graph, error) {
	chains, err := nfspec.Parse(src)
	if err != nil {
		return nil, err
	}
	var out []*nfgraph.Graph
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// baseRate computes a chain's base rate (§5.1): the chain throughput with a
// single core on its slowest software NF — the δ-sweep's unit.
func baseRate(g *nfgraph.Graph, topo *hw.Topology, db *profile.DB, frameBits float64) float64 {
	base := math.Inf(1)
	f := topo.Servers[0].ClockHz
	for _, n := range g.Order {
		if !n.Meta.SupportsPlatform(hw.Server) {
			continue
		}
		cyc := db.WorstCycles(n.Class(), n.Inst.Params) * topo.CrossSocketPenalty
		rate := f / cyc * frameBits / n.Weight
		if rate < base {
			base = rate
		}
	}
	return base
}

// BaseRates computes base rates for a set of canonical chains on a topology
// (placeholder t_min values are used just to build the graphs; base rates do
// not depend on the SLO).
func BaseRates(chainIdxs []int, topo *hw.Topology, db *profile.DB) ([]float64, error) {
	tmins := make([]float64, len(chainIdxs))
	for i := range tmins {
		tmins[i] = 1
	}
	graphs, err := BuildChains(chainIdxs, tmins, hw.Gbps(100), 0)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(graphs))
	for i, g := range graphs {
		out[i] = baseRate(g, topo, db, placer.DefaultFrameBits)
	}
	return out, nil
}
