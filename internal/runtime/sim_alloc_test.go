package runtime

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/placer"
)

// vlanSpec is the bare-forwarding chain set of the repository benchmark's
// sim_frame_path workload: trivial NF bodies, so what a packet costs is the
// frame path, and one chain that pushes and pops a VLAN tag.
const vlanSpec = `
chain fp_acl {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16  dst = 172.16.0.0/12 }
  acl = ACL(allow_dst = "172.16.0.0/12", rules = 64)
  fwd = IPv4Fwd()
  acl -> fwd
}
chain fp_tunnel {
  slo { tmin = 1Gbps  tmax = 8Gbps }
  aggregate { src = 10.2.0.0/16  dst = 172.16.0.0/12 }
  tun = Tunnel()
  lim = Limiter(rate_mbps = 100000)
  det = Detunnel()
  fwd = IPv4Fwd()
  tun -> lim -> det -> fwd
}
chain fp_monitor {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.3.0.0/16  dst = 172.16.0.0/12 }
  bpf = BPF()
  mon = Monitor()
  fwd = IPv4Fwd()
  bpf -> mon -> fwd
}`

// vlanPlacements are two placements of vlanSpec on a four-server rack:
// "server-vlan" pins every NF but IPv4Fwd to servers, so that one server hop
// runs Tunnel -> Limiter -> Detunnel (the benchmark's arrangement);
// "switch-vlan" leaves the placer free to offload, which puts the Tunnel on
// the switch in front of the NSH encap.
var vlanPlacements = []string{"server-vlan", "switch-vlan"}

// deployVLAN builds one of vlanPlacements and checks that it has the hop it
// is named for: the guards below are only as good as the hops they cross.
func deployVLAN(t *testing.T, name string) (*Testbed, []float64) {
	t.Helper()
	restrict := evalRestrict
	if name == "server-vlan" {
		restrict = map[string][]hw.Platform{"IPv4Fwd": {hw.PISA}}
		for _, class := range []string{"ACL", "Tunnel", "Detunnel", "BPF", "Monitor", "Limiter"} {
			restrict[class] = []hw.Platform{hw.Server}
		}
	}
	_, res, tb := deployRestricted(t, hw.NewPaperTestbed(hw.WithServers(4)), vlanSpec, placer.SchemeLemur, restrict)

	hasClass := func(nfs []nf.NF, class string) bool {
		for _, fn := range nfs {
			if fn.Class() == class {
				return true
			}
		}
		return false
	}
	found := false
	if name == "server-vlan" {
		for _, pl := range tb.D.Pipelines {
			for _, sg := range pl.Subgroups() {
				found = found || hasClass(sg.NFs, "Tunnel") && hasClass(sg.NFs, "Detunnel")
			}
		}
	} else {
		for _, sp := range tb.D.ChainPaths[1] {
			for si := 0; si <= sp.Length(); si++ {
				e := tb.D.Switch.Entry(sp.SPI, uint8(si))
				found = found || e != nil && e.Encap && hasClass(e.Apply, "Tunnel")
			}
		}
	}
	if !found {
		t.Fatalf("%s: the placement does not run the VLAN push where its name says", name)
	}
	return tb, res.ChainRates
}

// TestSimulateAllocBudget is the allocation-regression guard of the frame
// path: what one more simulated packet allocates, measured as the difference
// between a run and one twice as long, so that per-run set-up — all of a
// short run's allocations — cancels instead of hiding a per-packet cost
// (a ratio of allocations to packets let three buffers per VLAN packet
// through for as long as set-up was the larger term). The steady state is
// allocation-free: what grows with the run is each chain's delay tail, 8
// bytes per hundred packets of its injection bound (0.07-0.09 B a packet
// measured), where the raw delay samples it replaced held 8 a packet. It
// must hold across a server hop that pushes and pops a VLAN tag and across
// a switch that pushes one in front of the NSH encap, on one shard and on
// two.
func TestSimulateAllocBudget(t *testing.T) {
	const (
		allocBudget = 0.01 // heap objects per extra packet
		byteBudget  = 1.0  // heap bytes per extra packet
	)
	for _, name := range vlanPlacements {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				run := func(dur float64) (mallocs, bytes float64, injected int) {
					return simMallocs(t, func(t *testing.T) (*Testbed, []float64, SimConfig) {
						tb, offered := deployVLAN(t, name)
						return tb, offered, SimConfig{Seed: 3, DurationSec: dur, Scale: 200, QueueCap: 4096}
					}, workers)
				}
				m1, b1, p1 := run(0.25)
				m2, b2, p2 := run(0.5)
				dp := float64(p2 - p1)
				if dp < 5000 {
					t.Fatalf("only %d extra packets: too few to resolve %.2f allocs/packet", p2-p1, allocBudget)
				}
				perPkt, bytesPerPkt := (m2-m1)/dp, (b2-b1)/dp
				t.Logf("%d packets: %.0f allocs, %.0f B; %d packets: %.0f allocs, %.0f B; marginal %.4f allocs/pkt, %.2f B/pkt",
					p1, m1, b1, p2, m2, b2, perPkt, bytesPerPkt)
				if perPkt >= allocBudget {
					t.Errorf("allocation regression: %.4f allocs per extra packet, budget %.2f", perPkt, allocBudget)
				}
				if bytesPerPkt >= byteBudget {
					t.Errorf("allocation regression: %.1f heap bytes per extra packet, budget %.0f", bytesPerPkt, byteBudget)
				}
			})
		}
	}
}

// TestSimulatePoolBound: the frame-buffer pool holds no more buffers than
// the shard ever had packets in flight. Packets and buffers are drawn and
// returned together, and a simPacket is only allocated when its free list is
// empty, so the packets a shard hands back at the end of a run — free or
// parked — are its peak in flight. A hop that abandons the packet's buffer
// for another makes the pool grow by one for every such packet instead: the
// walk pools the orphan and the replacement, and takes only one back. The
// bound holds from run to run on one Testbed, and a warm run of the same
// config adds nothing: every shard finds the set it handed back, so the
// third run ends owning what the second did. (Spares pooled across shards
// would have shard 1 allocate its set again on every run.)
func TestSimulatePoolBound(t *testing.T) {
	for _, name := range vlanPlacements {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				tb, offered := deployVLAN(t, name)
				var owned [3][]int // per run, per shard: packets then buffers
				for run := range owned {
					eng, sim := runEngine(t, tb, offered, SimConfig{Seed: 3, DurationSec: 0.3, Scale: 200, QueueCap: 4096, Workers: workers})
					if sim.Injected[1] < 500 {
						t.Fatalf("VLAN chain injected %d packets", sim.Injected[1])
					}
					if len(eng.shards) != workers {
						t.Fatalf("%d shard(s) at Workers %d", len(eng.shards), workers)
					}
					total := 0
					for i, sp := range tb.spares {
						peak := len(sp.freePkts)
						if len(sp.freeBufs) > peak {
							t.Errorf("run %d: shard %d pools %d frame buffers for a peak of %d packets in flight", run+1, i, len(sp.freeBufs), peak)
						}
						owned[run] = append(owned[run], peak, len(sp.freeBufs))
						total += peak
					}
					if total == 0 {
						t.Fatalf("run %d handed nothing back to the Testbed", run+1)
					}
				}
				if fmt.Sprint(owned[2]) != fmt.Sprint(owned[1]) {
					t.Errorf("a warm run grew the pools: [packets buffers ...] per shard %v after run 2, %v after run 3", owned[1], owned[2])
				}
			})
		}
	}
}

// TestSimulateWarmAllocBudget: the second run of a config on a Testbed
// allocates per-run set-up, the delay tails and the rings its queues grow
// to, nothing that grows with the flow count and no frame buffer — under
// 0.02 heap objects and 4 bytes per packet at 200 000 flows a chain (about
// 1 measured), where regenerating the schedules alone is 55 bytes a packet
// and the buffers parked at the end of a run another few.
func TestSimulateWarmAllocBudget(t *testing.T) {
	const (
		allocBudget = 0.02 // heap objects per packet
		byteBudget  = 4.0  // heap bytes per packet
	)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tb, offered := deployStateless(t)
			cfg := SimConfig{Seed: 3, DurationSec: 0.4, Scale: 10, QueueCap: 4096, FlowScale: 200_000, Workers: workers}
			if _, err := tb.Simulate(offered, cfg); err != nil {
				t.Fatal(err)
			}
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			sim, err := tb.Simulate(offered, cfg)
			goruntime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			pkts := float64(sim.Injected[0] + sim.Injected[1])
			if pkts < 100_000 {
				t.Fatalf("only %.0f packets: set-up would dominate", pkts)
			}
			perPkt := float64(after.Mallocs-before.Mallocs) / pkts
			bytesPerPkt := float64(after.TotalAlloc-before.TotalAlloc) / pkts
			t.Logf("warm run: %.0f packets, %.4f allocs/pkt, %.2f B/pkt", pkts, perPkt, bytesPerPkt)
			if perPkt >= allocBudget {
				t.Errorf("warm run allocates %.4f objects per packet, budget %.2f", perPkt, allocBudget)
			}
			if bytesPerPkt >= byteBudget {
				t.Errorf("warm run allocates %.1f heap bytes per packet, budget %.0f", bytesPerPkt, byteBudget)
			}
		})
	}
}
