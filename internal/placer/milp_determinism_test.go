package placer_test

import (
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// milpRack is three chains that spread over every link-bearing device of a
// two-server rack with a SmartNIC, so the MILP's program has three link rows.
const milpRack = `
chain enc {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16 }
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  enc0 -> fwd0
}
chain ded {
  slo { tmin = 500Mbps  tmax = 100Gbps }
  aggregate { src = 10.2.0.0/16 }
  ded0 = Dedup()
  fwd0 = IPv4Fwd()
  ded0 -> fwd0
}
chain fast {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.3.0.0/16 }
  fe0 = FastEncrypt()
  fwd0 = IPv4Fwd()
  fe0 -> fwd0
}`

// TestMILPDeterministic: the MILP scheme's program is a function of the
// input — its link rows come in first-visit order, not map order — so fifty
// placements of fresh copies of one input render to one Result. The MILP
// must have solved each time: a fallback is the heuristic's Result.
func TestMILPDeterministic(t *testing.T) {
	chains, err := nfspec.Parse(milpRack)
	if err != nil {
		t.Fatal(err)
	}
	first := ""
	for i := 0; i < 50; i++ {
		in := &placer.Input{
			Topo:     hw.NewPaperTestbed(hw.WithServers(2), hw.WithSmartNIC()),
			DB:       profile.DefaultDB(),
			Restrict: map[string][]hw.Platform{"IPv4Fwd": {hw.PISA}},
		}
		for _, c := range chains {
			g, err := nfgraph.Build(c)
			if err != nil {
				t.Fatal(err)
			}
			in.Chains = append(in.Chains, g)
		}
		res, err := placer.Place(placer.SchemeMILP, in)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible || res.Reason != "" {
			t.Fatalf("call %d: feasible=%v reason %q; the MILP must solve this rack", i, res.Feasible, res.Reason)
		}
		devices := map[string]bool{}
		for _, sg := range res.Subgroups {
			devices[sg.Server] = true
		}
		for _, u := range res.NICUses {
			devices[u.Device] = true
		}
		if len(devices) < 3 {
			t.Fatalf("call %d: placement visits %d link-bearing devices, fixture wants 3", i, len(devices))
		}
		if got := renderPlacement(in, res); i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("call %d differs from call 0: %s", i, firstDiff(first, got))
		}
	}
}
