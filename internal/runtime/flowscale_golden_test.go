package runtime

import (
	"bytes"
	"fmt"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/obs"
	"lemur/internal/pisa"
	"lemur/internal/placer"
)

// statelessSpec is two chains of NFs that keep nothing from one packet to
// the next, so a second Simulate on the same Testbed differs from a first
// on a fresh one only by what the Testbed itself kept between runs. Each
// chain drops by five-tuple — the ACL admits half the aggregate's
// destinations, the BPF gate under half its source ports — so the counts
// depend on which flows the schedule holds and which of them each packet
// draws.
const statelessSpec = `
chain sa {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16  dst = 172.16.0.0/12 }
  acl = ACL(allow_dst = "172.16.0.0/13")
  enc = Encrypt()
  fwd = IPv4Fwd()
  acl -> enc -> fwd
}
chain sb {
  slo { tmin = 1Gbps  tmax = 8Gbps }
  aggregate { src = 10.2.0.0/16  dst = 172.16.0.0/12  dport = 443 }
  bpf = BPF(filter = "udp.sport < 25000", gate = 1)
  tun = Tunnel()
  det = Detunnel()
  fwd = IPv4Fwd()
  bpf -> tun -> det -> fwd
}`

// deployStateless places statelessSpec with every NF but IPv4Fwd on a
// server, which gives two steering components (one per chain), and offers
// each chain a fifth over its placed rate so queues build and drop.
func deployStateless(t *testing.T) (*Testbed, []float64) {
	t.Helper()
	restrict := map[string][]hw.Platform{"IPv4Fwd": {hw.PISA}}
	for _, class := range []string{"ACL", "Encrypt", "BPF", "Tunnel", "Detunnel"} {
		restrict[class] = []hw.Platform{hw.Server}
	}
	_, res, tb := deployRestricted(t, hw.NewPaperTestbed(hw.WithServers(4)), statelessSpec, placer.SchemeLemur, restrict)
	if w := partitionWorkers(t, tb.D, 2); w != 2 {
		t.Fatalf("statelessSpec splits into %d shard(s) at Workers 2, want 2", w)
	}
	return tb, []float64{res.ChainRates[0] * 1.2, res.ChainRates[1] * 1.2}
}

// flowScaleRuns is the run sequence of one golden case on one Testbed: a
// first run, a warm second run with the same config, and a third with the
// seed, the flow count, the churn mode and the horizon all changed.
func flowScaleRuns(churn bool) [3]SimConfig {
	a := SimConfig{Seed: 7, DurationSec: 0.2, Scale: 50, QueueCap: 512, FlowScale: 3000, FlowChurn: churn}
	b := SimConfig{Seed: 8, DurationSec: 0.3, Scale: 50, QueueCap: 512, FlowScale: 5000, FlowChurn: !churn}
	return [3]SimConfig{a, a, b}
}

// TestFlowScaleGolden pins FlowScale runs — SimResult and metrics, in
// sim.golden's rendering — to testdata/flowscale.golden: immortal and
// churning flow schedules, each as three consecutive runs on one Testbed
// (see flowScaleRuns), at Workers 1 and 2. sim.golden has no FlowScale cell
// and no second run on a Testbed; this file was generated on the commit
// before the Testbed began keeping schedules and pools between runs, so it
// holds that change to the bytes of a Testbed that kept nothing.
func TestFlowScaleGolden(t *testing.T) {
	reg := obs.Default()
	reg.Enable()
	t.Cleanup(func() {
		reg.Disable()
		reg.Reset()
	})

	var got bytes.Buffer
	for _, churn := range []bool{false, true} {
		name := "long-lived"
		if churn {
			name = "churn"
		}
		var first [3]string
		for _, w := range []int{1, 2} {
			pisa.SharedCache().Reset()
			tb, offered := deployStateless(t)
			for i, cfg := range flowScaleRuns(churn) {
				cfg.Workers = w
				reg.Reset()
				sim, err := tb.Simulate(offered, cfg)
				if err != nil {
					t.Fatalf("%s run %d workers=%d: %v", name, i+1, w, err)
				}
				rec := goldenRecord(t, reg, fmt.Sprintf("%s run %d", name, i+1), sim)
				if w == 1 {
					first[i] = rec
					got.WriteString(rec)
				} else if rec != first[i] {
					t.Fatalf("%s run %d: workers=%d output differs from workers=1\nw=1: %s\nw=%d: %s", name, i+1, w, first[i], w, rec)
				}
			}
		}
	}
	checkGolden(t, "flowscale.golden", got.Bytes())
}
