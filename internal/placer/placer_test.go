package placer

import (
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/profile"
)

// evalRestrict applies the evaluation's Table 3 footnote: IPv4Fwd is P4-only.
var evalRestrict = map[string][]hw.Platform{"IPv4Fwd": {hw.PISA}}

func input(t *testing.T, topo *hw.Topology, src string) *Input {
	t.Helper()
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := &Input{Topo: topo, DB: profile.DefaultDB(), Restrict: evalRestrict}
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		in.Chains = append(in.Chains, g)
	}
	return in
}

const simpleChain = `
chain web {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  acl0 = ACL(rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}`

func TestLemurSimpleChain(t *testing.T) {
	in := input(t, hw.NewPaperTestbed(), simpleChain)
	res, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %s", res.Reason)
	}
	// ACL and IPv4Fwd on the switch, Encrypt on the server.
	plat := map[string]hw.Platform{}
	for n, a := range res.Assign {
		plat[n.Name()] = a.Platform
	}
	if plat["acl0"] != hw.PISA || plat["fwd0"] != hw.PISA {
		t.Errorf("P4-able NFs not on switch: %v", plat)
	}
	if plat["enc0"] != hw.Server {
		t.Errorf("Encrypt not on server: %v", plat)
	}
	if len(res.Subgroups) != 1 {
		t.Fatalf("subgroups = %d, want 1", len(res.Subgroups))
	}
	sg := res.Subgroups[0]
	if sg.Cores < 1 {
		t.Errorf("cores = %d", sg.Cores)
	}
	// Chain rate must meet tmin and not exceed the NIC (one server visit).
	if res.ChainRates[0] < 2e9-1 {
		t.Errorf("rate %v < tmin", res.ChainRates[0])
	}
	if res.ChainRates[0] > hw.Gbps(40)+1 {
		t.Errorf("rate %v exceeds NIC capacity", res.ChainRates[0])
	}
	if res.Stages <= 0 || res.Stages > 12 {
		t.Errorf("stages = %d", res.Stages)
	}
	if res.Marginal <= 0 {
		t.Errorf("marginal = %v", res.Marginal)
	}
}

func TestLemurScalesEncryptAcrossCores(t *testing.T) {
	// tmin of 8 Gbps needs ~4 Encrypt cores (one core ≈ 2.3 Gbps with
	// cross-socket-conservative profiles).
	in := input(t, hw.NewPaperTestbed(), strings.Replace(simpleChain, "tmin = 2Gbps", "tmin = 8Gbps", 1))
	res, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %s", res.Reason)
	}
	if sg := res.Subgroups[0]; sg.Cores < 4 {
		t.Errorf("cores = %d, want >= 4 to meet 8 Gbps", sg.Cores)
	}
	if res.ChainRates[0] < 8e9-1 {
		t.Errorf("rate = %v", res.ChainRates[0])
	}
}

func TestInfeasibleTminBeyondNIC(t *testing.T) {
	// tmin of 50 Gbps cannot cross a 40 G NIC.
	in := input(t, hw.NewPaperTestbed(), strings.Replace(simpleChain, "tmin = 2Gbps", "tmin = 50Gbps", 1))
	res, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("should be infeasible, got rate %v", res.ChainRates)
	}
	if res.Reason == "" {
		t.Error("missing infeasibility reason")
	}
}

func TestNonReplicableLimitsChain(t *testing.T) {
	// FastEncrypt (non-replicable) caps the chain at one core's rate on a
	// topology without a SmartNIC.
	src := `
chain fast {
  slo { tmin = 8Gbps  tmax = 100Gbps }
  url0 = UrlFilter()
  fe0  = FastEncrypt()
  fwd0 = IPv4Fwd()
  url0 -> fe0 -> fwd0
}`
	in := input(t, hw.NewPaperTestbed(), src)
	res, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	// One core of FastEncrypt ≈ 1.7e9/(3400*1.06)*12240 ≈ 5.8 Gbps < 8.
	if res.Feasible {
		t.Fatalf("want infeasible (non-replicable bottleneck), got %v", res.ChainRates)
	}
	if !strings.Contains(res.Reason, "replicable") && !strings.Contains(res.Reason, "capacity") {
		t.Errorf("reason = %q", res.Reason)
	}
}

func TestSmartNICUnblocksFastEncrypt(t *testing.T) {
	src := `
chain fast {
  slo { tmin = 8Gbps  tmax = 100Gbps }
  url0 = UrlFilter()
  fe0  = FastEncrypt()
  fwd0 = IPv4Fwd()
  url0 -> fe0 -> fwd0
}`
	in := input(t, hw.NewPaperTestbed(hw.WithSmartNIC()), src)
	res, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible with SmartNIC: %s", res.Reason)
	}
	var nicFound bool
	for n, a := range res.Assign {
		if n.Name() == "fe0" && a.Platform == hw.SmartNIC {
			nicFound = true
		}
	}
	if !nicFound {
		t.Error("FastEncrypt not offloaded to the SmartNIC")
	}
	if len(res.NICUses) != 1 {
		t.Errorf("NICUses = %d", len(res.NICUses))
	}
	if res.ChainRates[0] < 8e9-1 {
		t.Errorf("rate = %v", res.ChainRates[0])
	}
}

const extremeChain = `
chain extreme {
  slo { tmin = 20Gbps  tmax = 100Gbps }
  bpf0 = BPF()
  n1 = NAT()
  n2 = NAT()
  n3 = NAT()
  n4 = NAT()
  n5 = NAT()
  n6 = NAT()
  n7 = NAT()
  n8 = NAT()
  n9 = NAT()
  n10 = NAT()
  n11 = NAT()
  fwd0 = IPv4Fwd()
  bpf0 -> n1 -> fwd0
  bpf0 -> n2 -> fwd0
  bpf0 -> n3 -> fwd0
  bpf0 -> n4 -> fwd0
  bpf0 -> n5 -> fwd0
  bpf0 -> n6 -> fwd0
  bpf0 -> n7 -> fwd0
  bpf0 -> n8 -> fwd0
  bpf0 -> n9 -> fwd0
  bpf0 -> n10 -> fwd0
  bpf0 -> n11 -> fwd0
}`

func TestExtremeStageConstraint(t *testing.T) {
	// §5.2: 11 branched NATs overflow the switch; Lemur evicts exactly one
	// NAT to the server and fits in 12 stages.
	in := input(t, hw.NewPaperTestbed(), extremeChain)
	res, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %s", res.Reason)
	}
	onSwitch, onServer := 0, 0
	for n, a := range res.Assign {
		if n.Class() != "NAT" {
			continue
		}
		switch a.Platform {
		case hw.PISA:
			onSwitch++
		case hw.Server:
			onServer++
		}
	}
	if onSwitch != 10 || onServer != 1 {
		t.Errorf("NATs: %d switch / %d server, want 10/1", onSwitch, onServer)
	}
	if res.Stages != 12 {
		t.Errorf("stages = %d, want 12", res.Stages)
	}
	// HW Preferred refuses to evict and must fail on stages.
	hwRes, err := Place(SchemeHWPreferred, in)
	if err != nil {
		t.Fatal(err)
	}
	if hwRes.Feasible {
		t.Error("HWPreferred should overflow the pipeline")
	}
	if !strings.Contains(hwRes.Reason, "stages") {
		t.Errorf("reason = %q", hwRes.Reason)
	}
	// MinBounce picks the all-switch placement (0 bounces) and also fails.
	mbRes, err := Place(SchemeMinBounce, in)
	if err != nil {
		t.Fatal(err)
	}
	if mbRes.Feasible {
		t.Error("MinBounce should overflow the pipeline")
	}
}

func TestSWPreferredOneSubgroup(t *testing.T) {
	// SW Preferred puts everything software-capable in one subgroup; with a
	// non-replicable NF inside, tmin beyond one core's rate is infeasible.
	src := `
chain swp {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  ded0 = Dedup()
  acl0 = ACL(rules = 1024)
  lim0 = Limiter()
  lb0  = LB()
  fwd0 = IPv4Fwd()
  ded0 -> acl0 -> lim0 -> lb0 -> fwd0
}`
	in := input(t, hw.NewPaperTestbed(), src)
	res, err := Place(SchemeSWPreferred, in)
	if err != nil {
		t.Fatal(err)
	}
	// One big subgroup (fwd0 is P4-only): Dedup+ACL+Limiter+LB ≈ 36k cycles
	// → ~0.55 Gbps at one core; 1 Gbps tmin is infeasible and the subgroup
	// cannot replicate (Limiter).
	if res.Feasible {
		t.Fatalf("SWPreferred should fail, got rates %v", res.ChainRates)
	}
	// Lemur survives by offloading ACL/LB and replicating Dedup.
	lres, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !lres.Feasible {
		t.Fatalf("Lemur infeasible: %s", lres.Reason)
	}
	if lres.ChainRates[0] < 1e9-1 {
		t.Errorf("rate = %v", lres.ChainRates[0])
	}
}

func TestGreedyVsLemur(t *testing.T) {
	// Two chains. Greedy pours spare cores into chain a (index order) and
	// may leave chain b at its minimum; Lemur's marginal-driven allocation
	// must do at least as well in aggregate.
	src := `
chain a {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  acl0 = ACL(rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}
chain b {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  url0 = UrlFilter()
  enc1 = Encrypt()
  fwd1 = IPv4Fwd()
  url0 -> enc1 -> fwd1
}`
	in := input(t, hw.NewPaperTestbed(), src)
	lemur, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Place(SchemeGreedy, in)
	if err != nil {
		t.Fatal(err)
	}
	if !lemur.Feasible || !greedy.Feasible {
		t.Fatalf("lemur=%v(%s) greedy=%v(%s)", lemur.Feasible, lemur.Reason, greedy.Feasible, greedy.Reason)
	}
	if lemur.Marginal < greedy.Marginal-1e6 {
		t.Errorf("Lemur marginal %v < Greedy %v", lemur.Marginal, greedy.Marginal)
	}
}

func TestOptimalMatchesOrBeatsLemur(t *testing.T) {
	in := input(t, hw.NewPaperTestbed(), simpleChain)
	lemur, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Place(SchemeOptimal, in)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Feasible {
		t.Fatalf("optimal infeasible: %s", opt.Reason)
	}
	if opt.Marginal < lemur.Marginal-1e6 {
		t.Errorf("Optimal %v < Lemur %v", opt.Marginal, lemur.Marginal)
	}
}

func TestNoCoreAllocAblation(t *testing.T) {
	in := input(t, hw.NewPaperTestbed(), strings.Replace(simpleChain, "tmin = 2Gbps", "tmin = 4Gbps", 1))
	res, err := Place(SchemeNoCoreAlloc, in)
	if err != nil {
		t.Fatal(err)
	}
	// One Encrypt core ≈ 2.3 Gbps < 4 Gbps tmin: the ablation must fail
	// where full Lemur succeeds.
	if res.Feasible {
		t.Errorf("NoCoreAlloc should fail at 4 Gbps, got %v", res.ChainRates)
	}
	full, _ := Place(SchemeLemur, in)
	if !full.Feasible {
		t.Errorf("Lemur should succeed: %s", full.Reason)
	}
}

func TestNoProfilingAblation(t *testing.T) {
	in := input(t, hw.NewPaperTestbed(), simpleChain)
	res, err := Place(SchemeNoProfiling, in)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := Place(SchemeLemur, in)
	if res.Feasible && full.Feasible && res.Marginal > full.Marginal+1e6 {
		t.Errorf("blind placement beat informed placement: %v > %v", res.Marginal, full.Marginal)
	}
}

func TestLatencyConstraintForcesFewerBounces(t *testing.T) {
	// A chain with alternating switch/server NFs: with a generous dmax the
	// placer can bounce for throughput; a tight dmax forces coalescing.
	src := `
chain lat {
  slo { tmin = 1Gbps  tmax = 100Gbps  dmax = 60us }
  enc0 = Encrypt()
  acl0 = ACL(rules = 1024)
  enc1 = Decrypt()
  fwd0 = IPv4Fwd()
  enc0 -> acl0 -> enc1 -> fwd0
}`
	in := input(t, hw.NewPaperTestbed(), src)
	loose, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Feasible {
		t.Fatalf("60us infeasible: %s", loose.Reason)
	}
	// The fully-bounced placement costs ~32us (2 bounces); the coalesced one
	// ~25us (1 bounce): 26us admits only the latter.
	tight := input(t, hw.NewPaperTestbed(), strings.Replace(src, "dmax = 60us", "dmax = 26us", 1))
	tightRes, err := Place(SchemeLemur, tight)
	if err != nil {
		t.Fatal(err)
	}
	if !tightRes.Feasible {
		t.Fatalf("26us infeasible: %s", tightRes.Reason)
	}
	looseBounces := Bounces(in.Chains[0], loose.Assign)
	tightBounces := Bounces(tight.Chains[0], tightRes.Assign)
	if tightBounces > looseBounces {
		t.Errorf("tight dmax produced more bounces (%d) than loose (%d)", tightBounces, looseBounces)
	}
	if tightRes.Marginal > loose.Marginal+1e6 {
		t.Errorf("tight dmax should not increase marginal: %v > %v", tightRes.Marginal, loose.Marginal)
	}
}

func TestUnknownScheme(t *testing.T) {
	in := input(t, hw.NewPaperTestbed(), simpleChain)
	if _, err := Place("Quantum", in); err == nil {
		t.Error("want error for unknown scheme")
	}
}

func TestMultiServerSpreads(t *testing.T) {
	src := `
chain a {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  d0 = Dedup()
  f0 = IPv4Fwd()
  d0 -> f0
}
chain b {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  d1 = Dedup()
  f1 = IPv4Fwd()
  d1 -> f1
}`
	in := input(t, hw.NewPaperTestbed(hw.WithServers(2), hw.WithSingleSocket()), src)
	res, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %s", res.Reason)
	}
	servers := map[string]bool{}
	for _, sg := range res.Subgroups {
		servers[sg.Server] = true
	}
	if len(servers) != 2 {
		t.Errorf("chains not spread across servers: %v", servers)
	}
}
