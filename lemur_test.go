package lemur

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"lemur/internal/obs"
)

const webSpec = `
chain web {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8  dst = 172.16.0.0/12 }
  acl0 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}`

func TestEndToEndPublicAPI(t *testing.T) {
	sys := New(WithP4Only("IPv4Fwd"))
	if err := sys.LoadSpec(webSpec); err != nil {
		t.Fatal(err)
	}
	pl, err := sys.Place()
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Feasible() {
		t.Fatalf("infeasible: %s", pl.Reason())
	}
	if pl.MarginalBps() <= 0 {
		t.Error("no marginal throughput")
	}
	rows := pl.Assignments()
	if len(rows) != 3 {
		t.Fatalf("assignments = %d", len(rows))
	}
	byNF := map[string]string{}
	for _, r := range rows {
		byNF[r.NF] = r.Platform
	}
	if byNF["acl0"] != "pisa" || byNF["fwd0"] != "pisa" || byNF["enc0"] != "server" {
		t.Errorf("assignments = %v", byNF)
	}
	if sgs := pl.Subgroups(); len(sgs) != 1 || sgs[0].Cores < 1 {
		t.Errorf("subgroups = %+v", sgs)
	}
	sum := pl.Summary()
	for _, frag := range []string{"feasible placement", "chain web", "enc0"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary missing %q:\n%s", frag, sum)
		}
	}

	dep, err := sys.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dep.SendPackets(100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Egressed != 100 {
		t.Errorf("egressed %d/100", rep.Egressed)
	}
	m, err := dep.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if m.AggregateBps < 2e9 {
		t.Errorf("aggregate = %v below tmin", m.AggregateBps)
	}
	if !strings.Contains(dep.P4Source(), "unified_parser") {
		t.Error("no P4 artifact")
	}
	if len(dep.BESSScripts()) == 0 {
		t.Error("no BESS scripts")
	}
	if share := dep.AutoGeneratedShare(); share <= 0 || share >= 1 {
		t.Errorf("auto share = %v", share)
	}
}

func TestInfeasibleSurfacedNotError(t *testing.T) {
	sys := New(WithP4Only("IPv4Fwd"))
	err := sys.LoadSpec(strings.Replace(webSpec, "tmin = 2Gbps", "tmin = 80Gbps", 1))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sys.Place()
	if err != nil {
		t.Fatal(err)
	}
	if pl.Feasible() {
		t.Fatal("80G through a 40G NIC should be infeasible")
	}
	if pl.Reason() == "" {
		t.Error("missing reason")
	}
	if !strings.Contains(pl.Summary(), "INFEASIBLE") {
		t.Error("summary should flag infeasibility")
	}
	if _, err := sys.Deploy(); err == nil {
		t.Error("Deploy must refuse an infeasible placement")
	}
}

// TestCompileWithoutFeasiblePlacement: Deploy compiles nothing from an
// infeasible placement, whether Place ran first or Deploy placed implicitly.
func TestCompileWithoutFeasiblePlacement(t *testing.T) {
	infeasible := strings.Replace(webSpec, "tmin = 2Gbps", "tmin = 90Gbps", 1)
	for _, placeFirst := range []bool{true, false} {
		sys := New(WithP4Only("IPv4Fwd"))
		if err := sys.LoadSpec(infeasible); err != nil {
			t.Fatal(err)
		}
		if placeFirst {
			if _, err := sys.Place(); err != nil {
				t.Fatal(err)
			}
		}
		dep, err := sys.Deploy()
		if err == nil || dep != nil {
			t.Fatalf("placeFirst=%v: Deploy on infeasible = (%v, %v), want an error", placeFirst, dep, err)
		}
		if !strings.Contains(err.Error(), "infeasible") {
			t.Errorf("placeFirst=%v: error %q does not name the infeasibility", placeFirst, err)
		}
		if sys.res == nil || sys.res.Feasible {
			t.Errorf("placeFirst=%v: Deploy did not keep the infeasible placement", placeFirst)
		}
	}
}

func TestSchemeOption(t *testing.T) {
	sys := New(WithScheme(SchemeSWPreferred), WithP4Only("IPv4Fwd"))
	if err := sys.LoadSpec(webSpec); err != nil {
		t.Fatal(err)
	}
	pl, err := sys.Place()
	if err != nil {
		t.Fatal(err)
	}
	// SW-preferred places ACL in software.
	for _, r := range pl.Assignments() {
		if r.NF == "acl0" && r.Platform != "server" {
			t.Errorf("SWPreferred put acl0 on %s", r.Platform)
		}
	}
}

// TestNegativeHeadroomRefused: a negative admission reserve is API misuse.
// Place and Deploy return the error instead of pouring cores the server
// does not have (enc0 on 23 of a 15-core server, which the compiler then
// refuses).
func TestNegativeHeadroomRefused(t *testing.T) {
	sys := New(WithAdmissionHeadroom(-8), WithP4Only("IPv4Fwd"))
	if err := sys.LoadSpec(webSpec); err != nil {
		t.Fatal(err)
	}
	if pl, err := sys.Place(); err == nil || !strings.Contains(err.Error(), "HeadroomCores") {
		t.Fatalf("Place with headroom -8: err %v, placement %+v; want a HeadroomCores error", err, pl)
	}
	if _, err := sys.Deploy(); err == nil || !strings.Contains(err.Error(), "HeadroomCores") {
		t.Fatalf("Deploy with headroom -8: err %v; want a HeadroomCores error", err)
	}
}

func TestLoadSpecErrors(t *testing.T) {
	sys := New()
	if err := sys.LoadSpec("garbage"); err == nil {
		t.Error("want parse error")
	}
	if _, err := sys.Place(); !errors.Is(err, errNoChains) {
		t.Errorf("placing zero chains: %v, want errNoChains", err)
	}
}

// TestLoadSpecDropsPlacement: loading more chains drops the last placement,
// so the next Deploy places them too.
func TestLoadSpecDropsPlacement(t *testing.T) {
	sys := New(WithP4Only("IPv4Fwd"))
	if err := sys.LoadSpec(webSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Place(); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSpec(strings.Replace(webSpec, "chain web", "chain web2", 1)); err != nil {
		t.Fatal(err)
	}
	if sys.in != nil || sys.res != nil {
		t.Fatal("LoadSpec kept the last placement")
	}
	dep, err := sys.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(dep.tb.D.Input.Chains); n != 2 {
		t.Fatalf("deployment holds %d chains, want both loaded specs", n)
	}
}

// TestDeployImplicitlyPlaces: Deploy without Place places first.
func TestDeployImplicitlyPlaces(t *testing.T) {
	sys := New(WithP4Only("IPv4Fwd"))
	if err := sys.LoadSpec(webSpec); err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy()
	if err != nil {
		t.Fatalf("Deploy without explicit Place: %v", err)
	}
	if sys.res == nil || dep.tb.D.Result != sys.res {
		t.Error("Deploy did not keep the placement it made")
	}
}

// TestDeployCompilesOncePerCall: every Deploy compiles the placement Place
// solved exactly once, into a deployment of its own — the one its Testbed
// runs and its artifacts come from — so a failover run, which rewires its
// deployment in place, leaves the next Deploy as fresh as a new System's.
func TestDeployCompilesOncePerCall(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	newSys := func() *System {
		sys := New(WithP4Only("IPv4Fwd"), WithServers(2))
		if err := sys.LoadSpec(failoverPairSpec); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Place(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := newSys()
	compiles := obs.C("lemur_compiles_total")
	before := compiles.Value()
	first, err := sys.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if n := compiles.Value() - before; n != 1 {
		t.Errorf("Deploy compiled %d times, want 1", n)
	}
	d := first.tb.D
	if d.Input != sys.in || d.Result != sys.res {
		t.Error("the deployment does not run the input and placement Place solved")
	}
	if first.P4Source() != d.Artifacts().P4Source || !reflect.DeepEqual(first.BESSScripts(), d.Artifacts().BESSScripts) {
		t.Error("the facade's artifacts are not the running deployment's")
	}

	if _, err := first.SimulateWithFaults(1.0, "crash:nf-server-0@0.1s"); err != nil {
		t.Fatal(err)
	}
	second, err := sys.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if second.tb.D == d {
		t.Fatal("the second Deploy reuses the first's deployment")
	}
	fresh, err := newSys().Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.BESSScripts(), fresh.BESSScripts()) {
		t.Error("Deploy after a failover run generated other server scripts than a fresh System's")
	}
	simJSON := func(dep *Deployment) []byte {
		rep, err := dep.Simulate(1.0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if got, want := simJSON(second), simJSON(fresh); !bytes.Equal(got, want) {
		t.Errorf("Deploy after a failover run differs from a fresh System's:\n got  %s\n want %s", got, want)
	}
}

func TestSmartNICOption(t *testing.T) {
	sys := New(WithSmartNIC(), WithP4Only("IPv4Fwd"))
	err := sys.LoadSpec(`
chain nic {
  slo { tmin = 8Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8 }
  fe0  = FastEncrypt()
  fwd0 = IPv4Fwd()
  fe0 -> fwd0
}`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sys.Place()
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Feasible() {
		t.Fatalf("infeasible: %s", pl.Reason())
	}
	found := false
	for _, r := range pl.Assignments() {
		if r.NF == "fe0" && r.Platform == "smartnic" {
			found = true
		}
	}
	if !found {
		t.Error("FastEncrypt not on the SmartNIC")
	}
	dep, err := sys.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.EBPFSources()) != 1 {
		t.Errorf("eBPF artifacts = %d", len(dep.EBPFSources()))
	}
}

const failoverPairSpec = `
chain alpha {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16 }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}
chain beta {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.2.0.0/16 }
  nat0 = NAT()
  fwd0 = IPv4Fwd()
  nat0 -> fwd0
}`

func TestSimulateWithFaultsPublicAPI(t *testing.T) {
	sys := New(WithP4Only("IPv4Fwd"), WithServers(2))
	if err := sys.LoadSpec(failoverPairSpec); err != nil {
		t.Fatal(err)
	}
	pl, err := sys.Place()
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Feasible() {
		t.Fatalf("infeasible: %s", pl.Reason())
	}
	dep, err := sys.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dep.SimulateWithFaults(1.0, "crash:nf-server-0@0.1s")
	if err != nil {
		t.Fatal(err)
	}
	fo := rep.Failover
	if fo == nil {
		t.Fatal("no failover outcome")
	}
	if len(fo.Events) != 1 || !strings.Contains(fo.Events[0], "nf-server-0") {
		t.Fatalf("events = %v", fo.Events)
	}
	if fo.ReplaceError != "" {
		t.Fatalf("re-placement failed: %s", fo.ReplaceError)
	}
	if len(fo.DowntimeSec) != 2 || len(fo.PostSLOCompliant) != 2 {
		t.Fatalf("per-chain slices malformed: %+v", fo)
	}
	for ci, ok := range fo.PostSLOCompliant {
		if !ok {
			t.Errorf("chain %d post-failover rate %g violates SLO", ci, fo.PostAchievedBps[ci])
		}
	}

	if _, err := dep.SimulateWithFaults(1.0, "crash:???"); err == nil {
		t.Fatal("malformed schedule must error")
	}
	// One grammar, two doors: each takes only its own kind of event.
	if _, err := dep.SimulateWithFaults(1.0, "retire:a@0.1s"); err == nil || !strings.Contains(err.Error(), "not a fault event") {
		t.Fatalf("churn event through SimulateWithFaults: got %v", err)
	}
	if _, err := sys.SimulateChurn(1.0, "crash:nf-server-0@0.1s"); err == nil || !strings.Contains(err.Error(), "not a churn event") {
		t.Fatalf("fault event through SimulateChurn: got %v", err)
	}
}
