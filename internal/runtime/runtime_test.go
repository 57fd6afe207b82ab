package runtime

import (
	"math/rand"
	"reflect"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nf"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/nsh"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/profile"
	"lemur/internal/trafficgen"
)

var evalRestrict = map[string][]hw.Platform{"IPv4Fwd": {hw.PISA}}

func deploy(t *testing.T, topo *hw.Topology, src string, scheme placer.Scheme) (*placer.Input, *placer.Result, *Testbed) {
	t.Helper()
	return deployRestricted(t, topo, src, scheme, evalRestrict)
}

// deployRestricted is deploy with the caller's platform restrictions.
func deployRestricted(t *testing.T, topo *hw.Topology, src string, scheme placer.Scheme, restrict map[string][]hw.Platform) (*placer.Input, *placer.Result, *Testbed) {
	t.Helper()
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := &placer.Input{Topo: topo, DB: profile.DefaultDB(), Restrict: restrict}
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		in.Chains = append(in.Chains, g)
	}
	res, err := placer.Place(scheme, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("placement infeasible: %s", res.Reason)
	}
	d, err := metacompiler.Compile(in, res)
	if err != nil {
		t.Fatal(err)
	}
	return in, res, New(d, 42)
}

const simpleSpec = `
chain web {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8  dst = 172.16.0.0/12 }
  acl0 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}`

func TestVerifyLinearChain(t *testing.T) {
	_, _, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	stats, err := tb.Verify(200)
	if err != nil {
		t.Fatalf("verify: %v (%+v)", err, stats)
	}
	if stats.Egressed != 200 {
		t.Errorf("egressed %d/200 (dropped %d)", stats.Egressed, stats.Dropped)
	}
	if stats.MaxHops < 1 {
		t.Errorf("max hops = %d, expected a server bounce", stats.MaxHops)
	}
}

func TestVerifyBranchedChains(t *testing.T) {
	src := `
chain split {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8 }
  bpf0 = BPF()
  enc0 = Encrypt()
  dec0 = Decrypt()
  fwd0 = IPv4Fwd()
  bpf0 -> [weight = 0.5] enc0
  bpf0 -> [weight = 0.5] dec0
  enc0 -> fwd0
  dec0 -> fwd0
}`
	_, _, tb := deploy(t, hw.NewPaperTestbed(), src, placer.SchemeLemur)
	// Both branches must actually carry traffic: the server pipeline hosts
	// enc0 and dec0 in separate subgroups, so the switch steers frames to
	// at least two (server, SPI, SI) entries.
	type entry struct {
		server string
		spi    uint32
		si     uint8
	}
	used := map[entry]bool{}
	tb.onVisit(func(_ int, fwd pisa.Forward, frame []byte) {
		if fwd.Kind != pisa.ToServer {
			return
		}
		spi, si, err := nsh.Tag(frame)
		if err != nil {
			t.Errorf("frame steered to %s carries no NSH tag: %v", fwd.Target, err)
			return
		}
		used[entry{fwd.Target, spi, si}] = true
	})
	stats, err := tb.Verify(300)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if stats.Egressed != 300 {
		t.Errorf("egressed %d/300 (dropped %d)", stats.Egressed, stats.Dropped)
	}
	if len(used) < 2 {
		t.Errorf("only %d subgroup entries saw traffic; weighted split broken", len(used))
	}
}

func TestVerifyMergedNATChains(t *testing.T) {
	src := `
chain cgnat {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8 }
  enc0 = Encrypt()
  lb0  = LB()
  n1   = NAT()
  n2   = NAT()
  n3   = NAT()
  fwd0 = IPv4Fwd()
  enc0 -> lb0
  lb0 -> n1 -> fwd0
  lb0 -> n2 -> fwd0
  lb0 -> n3 -> fwd0
}`
	_, _, tb := deploy(t, hw.NewPaperTestbed(), src, placer.SchemeLemur)
	stats, err := tb.Verify(300)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if stats.Egressed < 295 {
		t.Errorf("egressed %d/300 (dropped %d)", stats.Egressed, stats.Dropped)
	}
}

func TestVerifyACLDropsForeignTraffic(t *testing.T) {
	// Aggregate admits 10/8 but the ACL only allows dst 192.0.2.0/24: every
	// packet should be dropped by the ACL, not error out.
	src := `
chain deny {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8  dst = 172.16.0.0/12 }
  acl0 = ACL(allow_dst = "192.0.2.0/24", rules = 0)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}`
	_, _, tb := deploy(t, hw.NewPaperTestbed(), src, placer.SchemeLemur)
	stats, err := tb.Verify(100)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if stats.Dropped != 100 {
		t.Errorf("dropped %d/100", stats.Dropped)
	}
}

func TestMeasureTracksPrediction(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	m, err := tb.Measure(res.ChainRates)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rates) != 1 {
		t.Fatalf("rates = %v", m.Rates)
	}
	// Measured tracks predicted within a few percent, and never exceeds the
	// offered load.
	pred := res.ChainRates[0]
	if m.Rates[0] > pred+1 {
		t.Errorf("measured %v exceeds offered %v", m.Rates[0], pred)
	}
	if m.Rates[0] < 0.90*pred {
		t.Errorf("measured %v far below predicted %v", m.Rates[0], pred)
	}
	if m.Aggregate != m.Rates[0] {
		t.Errorf("aggregate = %v", m.Aggregate)
	}
	if m.WorstLatencySec[0] <= 0 || m.WorstLatencySec[0] > 1e-3 {
		t.Errorf("latency = %v", m.WorstLatencySec[0])
	}
}

func TestMeasureCapsAtCapacity(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	// Offer far beyond capacity: measured stays at/below the NIC link.
	m, err := tb.Measure([]float64{hw.Gbps(200)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rates[0] > hw.Gbps(40)+1 {
		t.Errorf("measured %v exceeds the 40G NIC", m.Rates[0])
	}
	if m.Rates[0] <= res.ChainRates[0]-hw.Gbps(1) {
		t.Errorf("measured %v well below sustainable %v", m.Rates[0], res.ChainRates[0])
	}
}

func TestMeasureDeterministicPerSeed(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	a, err := tb.Measure(res.ChainRates)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tb.Measure(res.ChainRates)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rates[0] != b.Rates[0] {
		t.Errorf("same seed diverged: %v vs %v", a.Rates[0], b.Rates[0])
	}
}

func TestVerifySmartNICPath(t *testing.T) {
	src := `
chain nic {
  slo { tmin = 8Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8 }
  url0 = UrlFilter()
  fe0  = FastEncrypt()
  fwd0 = IPv4Fwd()
  url0 -> fe0 -> fwd0
}`
	_, res, tb := deploy(t, hw.NewPaperTestbed(hw.WithSmartNIC()), src, placer.SchemeLemur)
	nicFrames := 0
	tb.onVisit(func(_ int, fwd pisa.Forward, _ []byte) {
		if fwd.Kind == pisa.ToNIC {
			nicFrames++
		}
	})
	stats, err := tb.Verify(100)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if stats.Egressed != 100 {
		t.Errorf("egressed %d/100 (dropped %d)", stats.Egressed, stats.Dropped)
	}
	if nicFrames != 100 {
		t.Errorf("NIC saw %d frames, want 100", nicFrames)
	}
	m, err := tb.Measure(res.ChainRates)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rates[0] < 8e9-1 {
		t.Errorf("measured %v below tmin", m.Rates[0])
	}
}

// allocatingVerify is the walk Verify used before it went in place: a fresh
// frame per packet, and every hop of switch, pipeline and NIC run on a
// private copy of the frame (ownCopy), so no hop ever sees another's
// buffer. It is the oracle TestVerifyInPlaceMatchesAllocating holds the
// in-place walk to.
func allocatingVerify(t *testing.T, tb *Testbed, n int) *WalkStats {
	t.Helper()
	stats := &WalkStats{ByChain: make([]ChainWalk, len(tb.D.Input.Chains))}
	env := &nf.Env{Rand: rand.New(rand.NewSource(tb.Seed))}
	for ci, g := range tb.D.Input.Chains {
		agg := g.Chain.Aggregate
		gen, err := trafficgen.New(trafficgen.Config{
			Mode: trafficgen.LongLived, Seed: tb.Seed + int64(ci),
			SrcCIDR: agg.SrcCIDR, DstCIDR: agg.DstCIDR, Proto: agg.Proto, DstPort: agg.DstPort,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			env.NowSec = float64(i) * 1e-5
			frame := gen.NextInto(nil, env.NowSec)
			stats.Injected++
			stats.ByChain[ci].Injected++
			outcome, hops := pisa.Dropped, 0
		walk:
			for ; hops < maxWalkHops; hops++ {
				out, fwd, err := tb.D.Switch.ProcessFrameInPlace(ownCopy(frame), env)
				if err != nil {
					t.Fatal(err)
				}
				frame = out
				switch fwd.Kind {
				case pisa.Egress, pisa.Dropped:
					outcome = fwd.Kind
					break walk
				case pisa.ToServer:
					frame, err = tb.D.Pipelines[fwd.Target].ProcessFrameInPlace(ownCopy(frame), env)
				case pisa.ToNIC:
					frame, err = tb.D.NICs[fwd.Target].ProcessFrameInPlace(ownCopy(frame), env)
				}
				if err != nil {
					t.Fatal(err)
				}
				if frame == nil {
					break // an NF dropped it
				}
			}
			if hops > stats.MaxHops {
				stats.MaxHops = hops
			}
			if outcome == pisa.Egress {
				stats.Egressed++
				stats.ByChain[ci].Egressed++
			} else {
				stats.Dropped++
				stats.ByChain[ci].Dropped++
			}
		}
	}
	return stats
}

// TestVerifyInPlaceMatchesAllocating: Verify walks one reused buffer through
// NextInto and the in-place frame paths; its WalkStats must equal the
// allocating walk's on a twin deployment, drop for drop and hop for hop.
func TestVerifyInPlaceMatchesAllocating(t *testing.T) {
	branched := "chain split {\n  slo { tmin = 1Gbps  tmax = 100Gbps }\n  aggregate { src = 10.1.0.0/16 }\n" +
		"  bpf0 = BPF()\n  enc0 = Encrypt()\n  dec0 = Decrypt()\n  nat0 = NAT()\n  fwd0 = IPv4Fwd()\n" +
		"  bpf0 -> [weight = 0.5] enc0\n  bpf0 -> [weight = 0.5] dec0\n  enc0 -> nat0\n  dec0 -> nat0\n  nat0 -> fwd0\n}\n"
	denied := "chain deny {\n  slo { tmin = 1Gbps  tmax = 100Gbps }\n  aggregate { src = 10.2.0.0/16  dst = 172.16.0.0/12 }\n" +
		"  acl0 = ACL(allow_dst = \"192.0.2.0/24\", rules = 0)\n  enc0 = Encrypt()\n  fwd0 = IPv4Fwd()\n" +
		"  acl0 -> enc0 -> fwd0\n}\n"
	offload := "chain off {\n  slo { tmin = 1Gbps  tmax = 100Gbps }\n  aggregate { src = 10.3.0.0/16 }\n" +
		"  fe0 = FastEncrypt()\n  mon0 = Monitor()\n  fwd0 = IPv4Fwd()\n  fe0 -> mon0 -> fwd0\n}\n"
	cases := []struct {
		name string
		topo func() *hw.Topology
		src  string
	}{
		{"linear", func() *hw.Topology { return hw.NewPaperTestbed() }, simpleSpec},
		{"branched+denied", func() *hw.Topology { return hw.NewPaperTestbed(hw.WithServers(2)) }, branched + denied},
		{"smartnic", func() *hw.Topology { return hw.NewPaperTestbed(hw.WithSmartNIC()) }, offload + branched},
	}
	for _, tc := range cases {
		for _, scheme := range []placer.Scheme{placer.SchemeLemur, placer.SchemeSWPreferred} {
			_, _, tb := deploy(t, tc.topo(), tc.src, scheme)
			_, _, twin := deploy(t, tc.topo(), tc.src, scheme)
			got, err := tb.Verify(300)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, scheme, err)
			}
			if want := allocatingVerify(t, twin, 300); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: in-place walk %+v, allocating walk %+v", tc.name, scheme, got, want)
			}
		}
	}
}

// TestEnforceLinksOrderFree: with two oversubscribed devices the enforced
// rates do not depend on which device is met first, and every device fits.
// Chain 0 visits devices A and B, chain 1 only A, chain 2 only B, each of
// capacity 10, at rates (10, 10, 5): A's factor is 1/2 and B's 2/3, so
// chain 0 takes the smaller, giving (5, 5, 10/3). Enforcing A before B in
// place would give (5, 5, 5); B before A (4, 6, 10/3).
func TestEnforceLinksOrderFree(t *testing.T) {
	visits := map[string][]float64{"A": {1, 1, 0}, "B": {1, 0, 1}}
	caps := map[string]float64{"A": 10, "B": 10}
	bFactor := caps["B"] / 15 // B carries chain 0 at 10 and chain 2 at 5
	want := []float64{5, 5, 5 * bFactor}
	// Map iteration order is randomised per range; many runs meet both.
	for run := 0; run < 50; run++ {
		rates := []float64{10, 10, 5}
		enforceLinks(rates, visits, caps)
		if !reflect.DeepEqual(rates, want) {
			t.Fatalf("run %d: enforced rates %v, want %v", run, rates, want)
		}
		for dev, vs := range visits {
			load := 0.0
			for i, v := range vs {
				load += v * rates[i]
			}
			if load > caps[dev]+1e-9 {
				t.Fatalf("run %d: device %s carries %v over its capacity %v", run, dev, load, caps[dev])
			}
		}
	}
	// A chain on no oversubscribed device keeps its rate bit for bit.
	rates := []float64{4, 3, 5}
	enforceLinks(rates, visits, caps)
	if !reflect.DeepEqual(rates, []float64{4, 3, 5}) {
		t.Fatalf("rates within capacity changed: %v", rates)
	}
}
