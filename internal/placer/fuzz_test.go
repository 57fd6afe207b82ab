package placer

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/profile"
)

// FuzzReplace drives the incremental door with fuzzer-chosen topologies,
// chain sets, failed-device name lists (valid names, garbage, duplicates, the
// ToR, every server at once) and a selector that folds a retirement and an
// admission into the same call: bit 0 retires chain (sel>>2) mod n, bit 1
// holds the last chain back from the base placement and admits it. With the
// selector zero the call is the failure-only delta Replace forwards. The
// contract under test: no panic, and either a feasible placement or a typed
// verdict — through Replace, every placement failure typed ErrInfeasible.
func FuzzReplace(f *testing.F) {
	f.Add(int64(1), uint8(2), "nf-server-1", uint8(0))
	f.Add(int64(2), uint8(3), "nf-server-2,nf-server-3", uint8(0))
	f.Add(int64(3), uint8(2), "agilio-cx-40", uint8(0))
	f.Add(int64(4), uint8(2), "nf-server-1,nf-server-2", uint8(0))
	f.Add(int64(5), uint8(3), "tofino-32", uint8(0))
	f.Add(int64(6), uint8(2), "no such device,,nf-server-1,nf-server-1", uint8(0))
	f.Add(int64(7), uint8(2), "", uint8(0))
	f.Add(int64(8), uint8(4), "\x00\xff,nf-server-9999", uint8(0))
	f.Add(int64(2), uint8(3), "nf-server-2", uint8(1))
	f.Add(int64(4), uint8(2), "nf-server-1", uint8(2))
	f.Add(int64(9), uint8(0x13), "agilio-cx-40,nf-server-3", uint8(7))
	f.Add(int64(6), uint8(3), "", uint8(3))

	f.Fuzz(func(t *testing.T, seed int64, shape uint8, failedCSV string, sel uint8) {
		rng := rand.New(rand.NewSource(seed))
		in := fuzzInput(t, rng, shape)
		if in == nil {
			return
		}
		n := len(in.Chains)
		d := Delta{Failed: NodeSet{}}
		for _, name := range strings.Split(failedCSV, ",") {
			if name != "" {
				d.Failed[name] = true
			}
		}
		baseIn := in
		if sel&2 != 0 && n > 1 {
			baseIn, d.Admit = prefixInput(in, n-1), []int{n - 1}
		}
		if sel&1 != 0 {
			d.Retire = []int{int(sel>>2) % len(baseIn.Chains)}
		}
		prev, err := Place(SchemeLemur, baseIn)
		if err != nil || !prev.Feasible {
			return
		}

		var next *Result
		if len(d.Admit)+len(d.Retire) == 0 {
			next, err = Replace(prev, in, d.Failed)
			if err != nil {
				if !errors.Is(err, ErrInfeasible) {
					t.Fatalf("Replace error not typed ErrInfeasible: %v", err)
				}
				if next != nil {
					t.Fatalf("Replace returned both a result and an error")
				}
				return
			}
		} else {
			rep, err := Reconfigure(prev, in, d)
			if err != nil {
				t.Fatalf("well-formed delta %+v rejected: %v", d, err)
			}
			if rep.Outcome != AdmitIncremental {
				if rep.Result != nil || rep.IncrementalReason == "" || !errors.Is(rep.Err(), ErrInfeasible) {
					t.Fatalf("%s verdict malformed: %+v", rep.Outcome, rep)
				}
				return
			}
			next = rep.Result
		}
		if next == nil || !next.Feasible {
			t.Fatalf("nil error but no feasible result: %+v", next)
		}
		checkInvariants(t, 0, prev.Scheme, in, next)
		// A feasible result must be internally complete: every chain rated,
		// every subgroup on a live server with at least one core, nothing
		// left on a retired slot.
		if len(next.ChainRates) != len(in.Chains) {
			t.Fatalf("feasible result has %d rates for %d chains", len(next.ChainRates), len(in.Chains))
		}
		dead := d.Failed.Expand(in.Topo)
		for _, sg := range next.Subgroups {
			if sg.Cores < 1 {
				t.Fatalf("subgroup %s has %d cores", sg.Name(), sg.Cores)
			}
			if dead[sg.Server] {
				t.Fatalf("subgroup %s placed on dead server %s", sg.Name(), sg.Server)
			}
			if next.IsRetired(sg.ChainIdx) {
				t.Fatalf("subgroup %s belongs to a retired slot", sg.Name())
			}
		}
		for _, u := range next.NICUses {
			if dead[u.Device] {
				t.Fatalf("NIC use %s on dead device %s", u.Node.Name(), u.Device)
			}
		}
		for _, ci := range d.Retire {
			if !next.IsRetired(ci) {
				t.Fatalf("retired slot %d not marked", ci)
			}
		}
	})
}

// fuzzInput derives a random input from the fuzzer's seed and shape byte.
// Returns nil when the drawn spec does not parse (not a finding).
func fuzzInput(t *testing.T, rng *rand.Rand, shape uint8) *Input {
	t.Helper()
	opts := []hw.TestbedOption{}
	if n := 1 + int(shape%4); n > 1 {
		opts = append(opts, hw.WithServers(n))
	}
	if shape&0x10 != 0 {
		opts = append(opts, hw.WithSmartNIC())
	}
	if shape&0x20 != 0 {
		opts = append(opts, hw.WithSingleSocket())
	}
	nChains := 1 + rng.Intn(3)
	src := ""
	for c := 0; c < nChains; c++ {
		src += randomChainSpec(rng, c)
	}
	chains, err := nfspec.Parse(src)
	if err != nil {
		return nil
	}
	in := &Input{Topo: hw.NewPaperTestbed(opts...), DB: profile.DefaultDB(), Restrict: evalRestrict}
	for _, ch := range chains {
		g, err := nfgraph.Build(ch)
		if err != nil {
			return nil
		}
		in.Chains = append(in.Chains, g)
	}
	return in
}
