package placer

import (
	"testing"

	"lemur/internal/hw"
)

func TestMILPMatchesOrBeatsHeuristicAllocation(t *testing.T) {
	for _, src := range []string{simpleChain, `
chain a {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  acl0 = ACL(rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}
chain b {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  ded0 = Dedup()
  lim0 = Limiter()
  fwd1 = IPv4Fwd()
  ded0 -> lim0 -> fwd1
}`} {
		in := input(t, hw.NewPaperTestbed(), src)
		heur, err := Place(SchemeLemur, in)
		if err != nil {
			t.Fatal(err)
		}
		milp, err := Place(SchemeMILP, in)
		if err != nil {
			t.Fatal(err)
		}
		if !heur.Feasible || !milp.Feasible {
			t.Fatalf("heur=%v(%s) milp=%v(%s)", heur.Feasible, heur.Reason, milp.Feasible, milp.Reason)
		}
		// The MILP itself must have solved: a fallback returns the heuristic's
		// Result (feasible, the reason says why), which would make the
		// comparison below vacuous.
		if milp.Reason != "" {
			t.Errorf("MILP fell back to the heuristic allocation: %s", milp.Reason)
		}
		// Exact allocation on the same structure can never be worse.
		if milp.Marginal < heur.Marginal-1e6 {
			t.Errorf("MILP marginal %v < heuristic %v", milp.Marginal, heur.Marginal)
		}
		// Invariants still hold under MILP allocation.
		checkInvariants(t, 0, SchemeMILP, in, milp)
	}
}

func TestMILPInfeasibleFallsBack(t *testing.T) {
	in := input(t, hw.NewPaperTestbed(), `
chain big {
  slo { tmin = 80Gbps  tmax = 100Gbps }
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  enc0 -> fwd0
}`)
	res, err := Place(SchemeMILP, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("80G through a 40G NIC must be infeasible")
	}
}

func TestMILPRespectsNonReplicable(t *testing.T) {
	in := input(t, hw.NewPaperTestbed(), `
chain lim {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  ded0 = Dedup()
  lim0 = Limiter()
  fwd0 = IPv4Fwd()
  ded0 -> lim0 -> fwd0
}`)
	res, err := Place(SchemeMILP, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %s", res.Reason)
	}
	for _, sg := range res.Subgroups {
		if !sg.Replicable && sg.Cores != 1 {
			t.Errorf("non-replicable %s got %d cores from the MILP", sg.Name(), sg.Cores)
		}
	}
}

// TestMILPLeavesHeuristicIntact: the MILP arm writes Cores, so it must work
// on copies — the heuristic's Result is what placeMILP returns when the
// exact attempt fails, and it has to be the heuristic's then. The fixture is
// link-bound, where the greedy pour overshoots and the exact allocation
// differs: rendering the heuristic's Result before and after the MILP ran
// on it gives the same bytes.
func TestMILPLeavesHeuristicIntact(t *testing.T) {
	in := input(t, hw.NewPaperTestbed(), `
chain mon {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}`)
	in.ensurePrep()
	heur, err := lemurHeuristic(in, policyMarginal)
	if err != nil {
		t.Fatal(err)
	}
	if !heur.Feasible {
		t.Fatalf("fixture: %s", heur.Reason)
	}
	before := canonicalResult(in, heur)
	milp := resolveMILP(in, heur)
	if !milp.Feasible {
		t.Fatalf("MILP arm: %s", milp.Reason)
	}
	differs := false
	for i, sg := range milp.Subgroups {
		if sg == heur.Subgroups[i] {
			t.Errorf("subgroup %s is shared with the heuristic's Result", sg.Name())
		}
		differs = differs || sg.Cores != heur.Subgroups[i].Cores
	}
	if !differs {
		t.Fatal("fixture: the exact allocation must differ from the greedy one")
	}
	if after := canonicalResult(in, heur); after != before {
		t.Errorf("the MILP arm rewrote the heuristic's Result:\n%s\nwas:\n%s", after, before)
	}
}
