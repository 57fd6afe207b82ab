package runtime

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lemur/internal/chaos"
	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
	"lemur/internal/packet"
	"lemur/internal/pisa"
	"lemur/internal/placer"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current engine")

// goldenCase is one row of the simulator golden matrix. build returns a
// fresh testbed (mid-run rewires mutate the deployment, so every run needs
// its own) plus the offered vector and config; Workers is set by the test.
type goldenCase struct {
	name  string
	build func(t *testing.T) (*Testbed, []float64, SimConfig)
}

// goldenSpec is three disjoint server-using chains — pa, pb and gamma land
// on three different servers of a widened testbed — so the steering graph
// splits into three shardable components and a crash severs exactly one.
const goldenSpec = twoComponentSpec + gammaSpec

// goldenDeadlineSpec is deadlineSpec with an aggregate that overlaps no
// other chain's, so it can share a deployment with twoComponentSpec.
const goldenDeadlineSpec = `
chain webdl {
  slo { tmin = 2Gbps  tmax = 100Gbps  dmax = 0.02 }
  aggregate { src = 10.7.0.0/16  dst = 172.16.0.0/12 }
  acl0 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}`

// goldenFaults builds a goldenSpec deployment on `servers` servers with a
// chaos plan whose %[1]s and %[2]s are the servers hosting pa and gamma at
// the start of the run; pa is offered 80% over its placed rate so queues
// build and drop.
func goldenFaults(servers int, planText string, dur float64) func(*testing.T) (*Testbed, []float64, SimConfig) {
	return func(t *testing.T) (*Testbed, []float64, SimConfig) {
		_, res, tb := deploy(t, hw.NewPaperTestbed(hw.WithServers(servers)), goldenSpec, placer.SchemeLemur)
		var hosts [3]string
		for _, sg := range res.Subgroups {
			if sg.Server != "" && hosts[sg.ChainIdx] == "" {
				hosts[sg.ChainIdx] = sg.Server
			}
		}
		if hosts[0] == "" || hosts[1] == "" || hosts[2] == "" || hosts[0] == hosts[1] || hosts[0] == hosts[2] || hosts[1] == hosts[2] {
			t.Fatalf("want pa, pb and gamma on three servers, got %v", hosts)
		}
		cfg := SimConfig{Seed: 21, DurationSec: dur, Scale: 200}
		if planText != "" {
			plan, err := chaos.Parse(fmt.Sprintf(planText, hosts[0], hosts[2]))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
		}
		return tb, []float64{res.ChainRates[0] * 1.8, res.ChainRates[1] * 1.1, res.ChainRates[2] * 0.8}, cfg
	}
}

// goldenCrashPlan crashes pa's server, overloads gamma's, then crashes
// that one too: three events, two rewires.
const goldenCrashPlan = "crash:%[1]s@0.05s;overload:%[2]s@0.15sx2;crash:%[2]s@0.25s"

// goldenChurn admits gamma into a twoComponentSpec deployment placed with
// headroom, then retires pb.
func goldenChurn(t *testing.T) (*Testbed, []float64, SimConfig) {
	_, res, tb := deployHeadroom(t, hw.NewPaperTestbed(hw.WithServers(3)), twoComponentSpec, 4)
	plan, err := chaos.Parse("admit:gamma@0.05s;retire:pb@0.12s")
	if err != nil {
		t.Fatal(err)
	}
	return tb, []float64{res.ChainRates[0] * 1.7, res.ChainRates[1] * 1.3}, SimConfig{
		Seed: 13, DurationSec: 0.3, Scale: 200, Faults: plan,
		ChurnCatalog: map[string]*nfgraph.Graph{"gamma": graphFor(t, gammaSpec)},
	}
}

// goldenCases is the fixed matrix: every kind of run the one loop serves.
// Durations are multiples of the 1 ms step that divide exactly, so the
// step count does not depend on how Duration/Step is rounded.
var goldenCases = []goldenCase{
	{"fault-free", goldenFaults(3, "", 0.2)},
	{"crash", goldenFaults(3, "crash:%[1]s@0.05s", 0.3)},
	{"degrade;overload", goldenFaults(3, "degrade:%[1]s@0.04sx0.5;overload:%[2]s@0.1sx2", 0.3)},
	{"crash;overload;crash", goldenFaults(4, goldenCrashPlan, 0.5)},
	{"churn admit;retire", goldenChurn},
	{"deadline", func(t *testing.T) (*Testbed, []float64, SimConfig) {
		_, res, tb := deploy(t, hw.NewPaperTestbed(hw.WithServers(2)), goldenDeadlineSpec+twoComponentSpec, placer.SchemeLemur)
		offered := []float64{res.ChainRates[0] * 1.6, res.ChainRates[1] * 1.2, res.ChainRates[2] * 0.9}
		return tb, offered, SimConfig{Seed: 11, DurationSec: 0.2, Scale: 200}
	}},
}

// dropIdleSeries removes zero-valued counters and gauges and empty
// histograms from a scrubbed snapshot. Registry.reset zeroes series but
// keeps them registered, so which idle series a snapshot lists depends on
// what ran earlier in the process; the golden must not.
func dropIdleSeries(t *testing.T, snap []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(snap, &m); err != nil {
		t.Fatal(err)
	}
	for kind, field := range map[string]string{"counters": "value", "gauges": "value", "histograms": "count"} {
		raw, ok := m[kind]
		if !ok {
			continue
		}
		var series []map[string]interface{}
		if err := json.Unmarshal(raw, &series); err != nil {
			t.Fatal(err)
		}
		kept := series[:0]
		for _, s := range series {
			if v, _ := s[field].(float64); v != 0 {
				kept = append(kept, s)
			}
		}
		b, err := json.Marshal(kept)
		if err != nil {
			t.Fatal(err)
		}
		m[kind] = b
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSimulateGolden pins SimResult, the wall-clock-scrubbed metrics
// snapshot (idle series dropped) and the per-chain egress digest
// (egressDigest) of the matrix above to testdata/sim.golden, at Workers 1,
// 2, 4 and 8. The file holds one record per case — the contract is that the
// worker count never shows in the output — and was generated on the commit
// before the three drivers became one run loop (the digest lines were added
// later, with nothing else moving), so it spans that rewrite
// where the serial-vs-parallel identity tests (both sides the same loop
// now) no longer can. `go test ./internal/runtime -run TestSimulateGolden
// -update` regenerates it; read the diff before committing one.
func TestSimulateGolden(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	var got bytes.Buffer
	for _, gc := range goldenCases {
		var first []byte
		for _, w := range []int{1, 2, 4, 8} {
			// The shared compile cache is process-global; reset it so every
			// run's rewire recompiles see the same hit/miss trajectory.
			pisa.SharedCache().Reset()
			tb, offered, cfg := gc.build(t)
			cfg.Workers = w
			obs.Reset()
			dig := &egressDigest{}
			tb.onVisit(dig.visit)
			sim, err := tb.Simulate(offered, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", gc.name, w, err)
			}
			if dig.err != nil {
				t.Fatalf("%s workers=%d: %v", gc.name, w, dig.err)
			}
			rec := goldenRecord(t, gc.name, sim) + dig.String()
			if first == nil {
				first = []byte(rec)
				got.Write(first)
			} else if !bytes.Equal(first, []byte(rec)) {
				t.Fatalf("%s: workers=%d output differs from workers=1\nw=1: %s\nw=%d: %s", gc.name, w, first, w, rec)
			}
		}
	}

	checkGolden(t, "sim.golden", got.Bytes())
}

// TestSimulateIgnoresArtifacts: rendering a deployment's code changes
// nothing a run computes. The golden crash;overload;crash and churn cases,
// whose Applies run mid-run, give the same SimResult and metrics record
// with an Artifacts call before Simulate as without one.
func TestSimulateIgnoresArtifacts(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	ran := 0
	for _, gc := range goldenCases {
		if gc.name != "crash;overload;crash" && gc.name != "churn admit;retire" {
			continue
		}
		ran++
		var recs [2]string
		for i := range recs {
			pisa.SharedCache().Reset()
			tb, offered, cfg := gc.build(t)
			if i == 1 && len(tb.D.Artifacts().BESSScripts) == 0 {
				t.Fatalf("%s: the deployment renders no BESS script", gc.name)
			}
			obs.Reset()
			sim, err := tb.Simulate(offered, cfg)
			if err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
			recs[i] = goldenRecord(t, gc.name, sim)
		}
		if recs[0] != recs[1] {
			t.Errorf("%s: a render before the run changed it\nwithout: %s\nwith:    %s", gc.name, recs[0], recs[1])
		}
	}
	if ran != 2 {
		t.Fatalf("ran %d of the two golden cases", ran)
	}
}

// egressDigest folds, per chain and in egress order, each egressed frame's
// five-tuple and length into an FNV-64a hash, through the testbed's visit
// hook. It reads headers only: the payload bytes of a payload-blind chain
// are unspecified. It shows which flow each packet picked where the counts
// in the rest of a golden record cannot. Shards that own different chains
// call it at once; each chain's frames come from one shard.
type egressDigest struct {
	mu     sync.Mutex
	p      packet.Packet
	chains []hash.Hash64 // by chain slot; nil for a chain that egressed nothing
	err    error
}

func (d *egressDigest) visit(ci int, fwd pisa.Forward, frame []byte) {
	if fwd.Kind != pisa.Egress {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.p.Decode(frame); err != nil {
		d.err = fmt.Errorf("chain %d egressed an undecodable frame: %w", ci, err)
		return
	}
	tu, err := d.p.Tuple()
	if err != nil {
		d.err = fmt.Errorf("chain %d egressed a frame without a five-tuple: %w", ci, err)
		return
	}
	var b [17]byte
	copy(b[0:4], tu.Src[:])
	copy(b[4:8], tu.Dst[:])
	binary.BigEndian.PutUint16(b[8:], tu.SrcPort)
	binary.BigEndian.PutUint16(b[10:], tu.DstPort)
	b[12] = tu.Proto
	binary.BigEndian.PutUint32(b[13:], uint32(len(frame)))
	for len(d.chains) <= ci {
		d.chains = append(d.chains, nil)
	}
	if d.chains[ci] == nil {
		d.chains[ci] = fnv.New64a()
	}
	d.chains[ci].Write(b[:])
}

// String renders the digests as one golden line, chains in slot order.
func (d *egressDigest) String() string {
	var b strings.Builder
	b.WriteString("egress fnv64a")
	for ci, h := range d.chains {
		if h != nil {
			fmt.Fprintf(&b, " %d=%016x", ci, h.Sum64())
		}
	}
	b.WriteString("\n")
	return b.String()
}

// goldenRecord renders one run as a golden record: the SimResult and the
// registry's wall-clock-scrubbed snapshot with idle series dropped.
func goldenRecord(t *testing.T, name string, sim *SimResult) string {
	t.Helper()
	return fmt.Sprintf("== %s\n%s\n%s\n", name, marshalSim(t, sim), dropIdleSeries(t, scrubWallClock(t, metricsJSON(t))))
}

// checkGolden holds got to testdata/<name> byte for byte, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if !bytes.Equal(wl[i], gl[i]) {
				t.Fatalf("%s line %d differs\nwant: %.600s\ngot:  %.600s", name, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("%s has %d lines, this run produced %d", name, len(wl), len(gl))
	}
}

// metricsJSON is the default registry's JSON snapshot, as WriteFiles writes
// it for -metrics-out.
func metricsJSON(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := obs.Default().WriteFiles(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
