package metacompiler

import (
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

const churnBaseSpec = `
chain gold {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16 }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}
chain silver {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.2.0.0/16 }
  nat0 = NAT()
  fwd0 = IPv4Fwd()
  nat0 -> fwd0
}`

const churnAdmitSpec = `
chain bronze {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.3.0.0/16 }
  lim0 = Limiter()
  fwd0 = IPv4Fwd()
  lim0 -> fwd0
}`

// compileWithHeadroom is compileSpec with an admission reserve, so a later
// AdmitChains has cores to draw from.
func compileWithHeadroom(t *testing.T, src string, headroom int) (*placer.Input, *Deployment) {
	t.Helper()
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := &placer.Input{
		Topo: hw.NewPaperTestbed(), DB: profile.DefaultDB(),
		Restrict: evalRestrict, HeadroomCores: headroom,
	}
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		in.Chains = append(in.Chains, g)
	}
	res, err := placer.Place(placer.SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("placement infeasible: %s", res.Reason)
	}
	d, err := Compile(in, res)
	if err != nil {
		t.Fatal(err)
	}
	return in, d
}

// pinnedEntryPtrs snapshots, per chain, every live switch entry by pointer.
func pinnedEntryPtrs(d *Deployment, chains []int) map[[2]uint32]interface{} {
	out := map[[2]uint32]interface{}{}
	for _, ci := range chains {
		lo, hi := chainSPIRange(ci)
		for spi := lo; spi <= hi; spi++ {
			for si := 0; si <= 64; si++ {
				if e := d.Switch.Entry(spi, uint8(si)); e != nil {
					out[[2]uint32{spi, uint32(si)}] = e
				}
			}
		}
	}
	return out
}

// TestAdmitChainsAdditive: admitting a chain installs only its own state —
// every prior switch entry survives by pointer identity, the report's kept
// counts reconcile, and the new chain's steering exists end to end.
func TestAdmitChainsAdditive(t *testing.T) {
	in, d := compileWithHeadroom(t, churnBaseSpec, 4)
	prev := d.Result

	newChains, err := nfspec.Parse(churnAdmitSpec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := nfgraph.Build(newChains[0])
	if err != nil {
		t.Fatal(err)
	}
	grown := *in
	grown.Chains = append(append([]*nfgraph.Graph(nil), in.Chains...), g)
	rep, err := placer.Admit(prev, &grown, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != placer.AdmitIncremental {
		t.Fatalf("admit outcome = %s (%s), want incremental", rep.Outcome, rep.IncrementalReason)
	}

	before := pinnedEntryPtrs(d, []int{0, 1})
	prevEntries := d.Switch.EntryCount()
	rw, err := d.AdmitChains(&grown, rep.Result, []int{2})
	if err != nil {
		t.Fatalf("AdmitChains: %v", err)
	}
	if rw.RemovedSwitchEntries != 0 || rw.RemovedSubgroups != 0 {
		t.Errorf("admission removed state: %s", rw)
	}
	if rw.KeptSwitchEntries != prevEntries {
		t.Errorf("kept %d switch entries, want all %d", rw.KeptSwitchEntries, prevEntries)
	}
	for k, e := range before {
		if d.Switch.Entry(k[0], uint8(k[1])) != e {
			t.Fatalf("pinned switch entry (%d,%d) moved", k[0], k[1])
		}
	}
	if len(d.ChainPaths) != 3 || len(d.ChainPaths[2]) == 0 {
		t.Fatalf("admitted chain has no service paths: %d chains", len(d.ChainPaths))
	}
	sp := d.ChainPaths[2][0]
	if d.Switch.Entry(sp.SPI, uint8(sp.Length())) == nil {
		t.Error("admitted chain has no head switch entry")
	}
	if !strings.Contains(d.Artifacts().P4Source, "bronze") && !strings.Contains(d.Artifacts().P4Source, "spi") {
		t.Error("artifacts were not regenerated for the admitted chain")
	}
}

// TestAdmitChainsValidation: a mutated prefix or a non-tail added set is
// rejected before any state changes.
func TestAdmitChainsValidation(t *testing.T) {
	in, d := compileWithHeadroom(t, churnBaseSpec, 4)
	if _, err := d.AdmitChains(nil, nil, nil); err == nil {
		t.Fatal("nil input must fail")
	}
	grown := *in
	grown.Chains = append([]*nfgraph.Graph(nil), in.Chains...)
	if _, err := d.AdmitChains(&grown, d.Result, []int{5}); err == nil ||
		!strings.Contains(err.Error(), "chains") {
		t.Fatalf("wrong chain count must fail, got %v", err)
	}

	// A call rejected for its result — the last thing checked — must leave
	// the deployment as it was: the valid call that follows still sees its
	// own chain prefix and lands.
	newChains, err := nfspec.Parse(churnAdmitSpec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := nfgraph.Build(newChains[0])
	if err != nil {
		t.Fatal(err)
	}
	grown.Chains = append(grown.Chains, g)
	paths, entries := len(d.ChainPaths), d.Switch.EntryCount()
	for name, bad := range map[string]*placer.Result{
		"infeasible":  {Reason: "synthetic"},
		"short rates": d.Result, // covers two chains, the grown input has three
	} {
		if _, err := d.AdmitChains(&grown, bad, []int{2}); err == nil {
			t.Fatalf("%s result must fail", name)
		}
		if d.Input != in || len(d.ChainPaths) != paths || d.Switch.EntryCount() != entries {
			t.Fatalf("rejected call (%s result) changed the deployment", name)
		}
	}
	rep, err := placer.Admit(d.Result, &grown, []int{2})
	if err != nil || rep.Outcome != placer.AdmitIncremental {
		t.Fatalf("admit: %v %+v", err, rep)
	}
	if _, err := d.AdmitChains(&grown, rep.Result, []int{2}); err != nil {
		t.Fatalf("valid call after a rejected one: %v", err)
	}
}

// TestRetireChainsReclaims: retiring a chain removes exactly its switch
// entries, subgroups, and core shares while survivors keep theirs by
// pointer, so a later admission can reuse the freed budget.
func TestRetireChainsReclaims(t *testing.T) {
	in, d := compileWithHeadroom(t, churnBaseSpec, 0)
	prev := d.Result

	next, err := placer.Retire(prev, in, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !next.IsRetired(0) {
		t.Fatal("Retire did not mark the slot")
	}

	survivors := pinnedEntryPtrs(d, []int{1})
	victims := pinnedEntryPtrs(d, []int{0})
	if len(victims) == 0 {
		t.Fatal("victim chain had no switch entries to reclaim")
	}
	sharesBefore := len(d.Shares)
	rw, err := d.RetireChains(next, []int{0})
	if err != nil {
		t.Fatalf("RetireChains: %v", err)
	}
	if rw.InstalledSwitchEntries != 0 || rw.InstalledSubgroups != 0 {
		t.Errorf("retirement installed state: %s", rw)
	}
	if rw.RemovedSwitchEntries != len(victims) {
		t.Errorf("removed %d switch entries, want %d", rw.RemovedSwitchEntries, len(victims))
	}
	for k, e := range survivors {
		if d.Switch.Entry(k[0], uint8(k[1])) != e {
			t.Fatalf("survivor switch entry (%d,%d) moved", k[0], k[1])
		}
	}
	for k := range victims {
		if d.Switch.Entry(k[0], uint8(k[1])) != nil {
			t.Fatalf("victim switch entry (%d,%d) survived retirement", k[0], k[1])
		}
	}
	if len(d.Shares) >= sharesBefore {
		t.Errorf("core shares not reclaimed: %d before, %d after", sharesBefore, len(d.Shares))
	}

	// Double retirement of the same slot is rejected by the placer.
	if _, err := placer.Retire(next, in, []int{0}); err == nil ||
		!strings.Contains(err.Error(), "already retired") {
		t.Fatalf("double retire must fail, got %v", err)
	}

	// Validation: retiring a slot the result does not mark is rejected.
	if _, err := d.RetireChains(next, []int{1}); err == nil ||
		!strings.Contains(err.Error(), "not marked retired") {
		t.Fatalf("unmarked retire must fail, got %v", err)
	}
}
