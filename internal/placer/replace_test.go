package placer

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/profile"
)

// canonicalResult renders every placement-relevant field of a Result
// deterministically, so byte-equality of the strings is byte-equality of
// the placements.
func canonicalResult(in *Input, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s feasible=%v reason=%q stages=%d\n",
		res.Scheme, res.Feasible, res.Reason, res.Stages)
	for ci, g := range in.Chains {
		fmt.Fprintf(&b, "chain %d:\n", ci)
		for _, n := range g.Order {
			a := res.Assign[n]
			fmt.Fprintf(&b, "  %s -> %v %q break=%v\n", n.Name(), a.Platform, a.Device, res.Breaks[n])
		}
	}
	for _, sg := range res.Subgroups {
		fmt.Fprintf(&b, "sub %s srv=%s w=%v cyc=%v repl=%v cores=%d\n",
			sg.Name(), sg.Server, sg.Weight, sg.Cycles, sg.Replicable, sg.Cores)
	}
	for _, u := range res.NICUses {
		fmt.Fprintf(&b, "nic c%d %s dev=%s w=%v cyc=%v\n",
			u.ChainIdx, u.Node.Name(), u.Device, u.Weight, u.Cycles)
	}
	fmt.Fprintf(&b, "rates=%v marginal=%v agg=%v\n",
		res.ChainRates, res.Marginal, res.PredictedAggregate)
	return b.String()
}

// buildFailoverInput draws a random multi-server input (failures need
// somewhere to fail over to) with 1-3 random linear chains.
func buildFailoverInput(t *testing.T, rng *rand.Rand) *Input {
	t.Helper()
	opts := []hw.TestbedOption{hw.WithServers(2 + rng.Intn(2))}
	if rng.Intn(2) == 0 {
		opts = append(opts, hw.WithSingleSocket())
	}
	if rng.Intn(2) == 0 {
		opts = append(opts, hw.WithSmartNIC())
	}
	nChains := 1 + rng.Intn(3)
	src := ""
	for c := 0; c < nChains; c++ {
		src += randomChainSpec(rng, c)
	}
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	in := &Input{Topo: hw.NewPaperTestbed(opts...), DB: profile.DefaultDB(), Restrict: evalRestrict}
	for _, ch := range chains {
		g, err := nfgraph.Build(ch)
		if err != nil {
			t.Fatal(err)
		}
		in.Chains = append(in.Chains, g)
	}
	return in
}

// subgroupSnapshot captures every mutable Subgroup field so tests can prove
// Replace never writes through pinned (or previous) subgroup pointers.
type subgroupSnapshot struct {
	server     string
	weight     float64
	cycles     float64
	replicable bool
	cores      int
	nodes      []*nfgraph.Node
}

func snapshotSubgroups(subs []*Subgroup) map[*Subgroup]subgroupSnapshot {
	out := make(map[*Subgroup]subgroupSnapshot, len(subs))
	for _, sg := range subs {
		out[sg] = subgroupSnapshot{
			server: sg.Server, weight: sg.Weight, cycles: sg.Cycles,
			replicable: sg.Replicable, cores: sg.Cores,
			nodes: append([]*nfgraph.Node(nil), sg.Nodes...),
		}
	}
	return out
}

func verifySnapshot(t *testing.T, trial int, subs []*Subgroup, snap map[*Subgroup]subgroupSnapshot) {
	t.Helper()
	for _, sg := range subs {
		s, ok := snap[sg]
		if !ok {
			t.Fatalf("trial %d: subgroup %s missing from snapshot", trial, sg.Name())
		}
		if sg.Server != s.server || sg.Weight != s.weight || sg.Cycles != s.cycles ||
			sg.Replicable != s.replicable || sg.Cores != s.cores || len(sg.Nodes) != len(s.nodes) {
			t.Errorf("trial %d: subgroup %s mutated by Replace", trial, sg.Name())
			continue
		}
		for i := range s.nodes {
			if sg.Nodes[i] != s.nodes[i] {
				t.Errorf("trial %d: subgroup %s node list mutated", trial, sg.Name())
				break
			}
		}
	}
}

// TestReplaceZeroFailuresIdentity: over 50+ random inputs, Replace with an
// empty failed set must return a placement byte-identical to the Place
// result it was given — the re-validation path must not perturb anything.
func TestReplaceZeroFailuresIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	feasible := 0
	for trial := 0; trial < 60; trial++ {
		in := buildFailoverInput(t, rng)
		prev, err := Place(SchemeLemur, in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !prev.Feasible {
			continue
		}
		feasible++
		want := canonicalResult(in, prev)
		snap := snapshotSubgroups(prev.Subgroups)
		for name, failed := range map[string]NodeSet{"nil": nil, "empty": NodeSet{}, "unknown": NewNodeSet("no-such-device")} {
			next, err := Replace(prev, in, failed)
			if err != nil {
				t.Fatalf("trial %d (%s): %v", trial, name, err)
			}
			if got := canonicalResult(in, next); got != want {
				t.Fatalf("trial %d (%s): Replace with no failures differs from Place:\n--- place\n%s\n--- replace\n%s",
					trial, name, want, got)
			}
		}
		verifySnapshot(t, trial, prev.Subgroups, snap)
	}
	if feasible < 20 {
		t.Fatalf("only %d/60 trials feasible; property under-exercised", feasible)
	}
}

// TestReplacePinningInvariant: over 50+ random inputs × single-server
// failures, every surviving chain keeps its exact previous placement —
// the same *Subgroup pointers with unchanged contents, the same node
// assignments — and the re-placed chains never reference a dead device.
func TestReplacePinningInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1944))
	replaced, infeasible := 0, 0
	for trial := 0; trial < 60; trial++ {
		in := buildFailoverInput(t, rng)
		prev, err := Place(SchemeLemur, in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !prev.Feasible {
			continue
		}
		victim := in.Topo.Servers[rng.Intn(len(in.Topo.Servers))].Name
		failed := NewNodeSet(victim)
		dead := failed.Expand(in.Topo)
		snap := snapshotSubgroups(prev.Subgroups)
		prevAssign := cloneAssign(prev.Assign)

		next, err := Replace(prev, in, failed)
		verifySnapshot(t, trial, prev.Subgroups, snap) // prev untouched either way
		for n, a := range prevAssign {
			if prev.Assign[n] != a {
				t.Fatalf("trial %d: Replace mutated prev.Assign[%s]", trial, n.Name())
			}
		}
		if err != nil {
			if !errors.Is(err, errInfeasible) {
				t.Fatalf("trial %d: error not typed errInfeasible: %v", trial, err)
			}
			infeasible++
			continue
		}
		replaced++

		affected := map[int]bool{}
		for _, ci := range AffectedChains(in, prev, dead) {
			affected[ci] = true
		}

		// Surviving chains: identical subgroup pointer sequences...
		prevByChain := map[int][]*Subgroup{}
		for _, sg := range prev.Subgroups {
			prevByChain[sg.ChainIdx] = append(prevByChain[sg.ChainIdx], sg)
		}
		nextByChain := map[int][]*Subgroup{}
		for _, sg := range next.Subgroups {
			nextByChain[sg.ChainIdx] = append(nextByChain[sg.ChainIdx], sg)
		}
		for ci := range in.Chains {
			if affected[ci] {
				continue
			}
			p, n := prevByChain[ci], nextByChain[ci]
			if len(p) != len(n) {
				t.Fatalf("trial %d: pinned chain %d subgroup count changed %d -> %d", trial, ci, len(p), len(n))
			}
			for i := range p {
				if p[i] != n[i] {
					t.Errorf("trial %d: pinned chain %d subgroup %d is a different object", trial, ci, i)
				}
			}
			// ... and identical node assignments.
			for _, nd := range in.Chains[ci].Order {
				if next.Assign[nd] != prevAssign[nd] {
					t.Errorf("trial %d: pinned chain %d node %s moved %v -> %v",
						trial, ci, nd.Name(), prevAssign[nd], next.Assign[nd])
				}
			}
		}

		// Nothing in the new placement references a dead device.
		for _, sg := range next.Subgroups {
			if dead[sg.Server] {
				t.Errorf("trial %d: subgroup %s still on dead server %s", trial, sg.Name(), sg.Server)
			}
		}
		for _, u := range next.NICUses {
			if dead[u.Device] {
				t.Errorf("trial %d: NIC use %s still on dead device %s", trial, u.Node.Name(), u.Device)
			}
		}
		for _, g := range in.Chains {
			for _, n := range g.Order {
				if a := next.Assign[n]; a.Device != "" && dead[a.Device] {
					t.Errorf("trial %d: node %s assigned to dead device %s", trial, n.Name(), a.Device)
				}
			}
		}

		// The re-placement is a valid placement in its own right.
		checkInvariants(t, trial, prev.Scheme, in, next)

		// Replace is deterministic: same inputs, byte-identical output.
		again, err := Replace(prev, in, failed)
		if err != nil {
			t.Fatalf("trial %d: second Replace: %v", trial, err)
		}
		if canonicalResult(in, again) != canonicalResult(in, next) {
			t.Errorf("trial %d: Replace not deterministic", trial)
		}
	}
	if replaced < 15 {
		t.Fatalf("only %d replacements succeeded (%d infeasible); property under-exercised", replaced, infeasible)
	}
}

// TestReplaceAllServersFail: killing every server must yield a typed
// errInfeasible, never a panic or partial result.
func TestReplaceAllServersFail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := buildFailoverInput(t, rng)
	prev, err := Place(SchemeLemur, in)
	if err != nil || !prev.Feasible {
		t.Skipf("base placement infeasible: %v", err)
	}
	var all []string
	for _, s := range in.Topo.Servers {
		all = append(all, s.Name)
	}
	if _, err := Replace(prev, in, NewNodeSet(all...)); !errors.Is(err, errInfeasible) {
		t.Fatalf("want errInfeasible, got %v", err)
	}
	// The ToR failing is also typed infeasible (all traffic enters there).
	if _, err := Replace(prev, in, NewNodeSet(in.Topo.Switch.Name)); !errors.Is(err, errInfeasible) {
		t.Fatalf("ToR death: want errInfeasible, got %v", err)
	}
}
