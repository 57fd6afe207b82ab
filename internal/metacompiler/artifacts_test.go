package metacompiler

import (
	"errors"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/p4"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// matchSpec is admitted next to linearSpec: m0 runs on the switch, mon0 (a
// class with no P4 program) on a server.
const matchSpec = `
chain guard {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 11.0.0.0/8 }
  m0   = Match()
  mon0 = Monitor()
  fwd1 = IPv4Fwd()
  m0 -> mon0 -> fwd1
}`

// nodeNamed returns chain g's node called name.
func nodeNamed(t *testing.T, g *nfgraph.Graph, name string) *nfgraph.Node {
	t.Helper()
	for _, n := range g.Order {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("chain %s has no node %s", g.Chain.Name, name)
	return nil
}

// onSwitch returns a copy of res that runs n on the switch.
func onSwitch(res *placer.Result, n *nfgraph.Node) *placer.Result {
	cp := *res
	cp.Assign = maps.Clone(res.Assign)
	cp.Assign[n] = placer.Assign{Platform: hw.PISA}
	return &cp
}

// conflictingMatch swaps Match's library program, for the rest of the test,
// for one whose parser sends TCP to the UDP header, which ACL's parser
// cannot merge with (§A.2.1).
func conflictingMatch(t *testing.T) {
	orig := p4.Library["Match"]
	bad := *orig
	bad.Parser = p4.NewGraph()
	bad.Parser.States["ethernet"] = &p4.State{Header: "ethernet", SelectField: "ethertype",
		Transitions: []p4.Transition{{Value: "0x0800", Next: "ipv4"}}}
	bad.Parser.States["ipv4"] = &p4.State{Header: "ipv4", SelectField: "proto",
		Transitions: []p4.Transition{{Value: "6", Next: "udp"}}}
	bad.Parser.States["udp"] = &p4.State{Header: "udp"}
	p4.Library["Match"] = &bad
	t.Cleanup(func() { p4.Library["Match"] = orig })
}

// TestCompileRefusesWhatCannotRender: Compile refuses, without rendering, a
// placement that runs an NF with no P4 library program on the switch, and
// one whose switch-resident NFs' parsers conflict.
func TestCompileRefusesWhatCannotRender(t *testing.T) {
	in, res := placeSpec(t, hw.NewPaperTestbed(), linearSpec+matchSpec)
	m0, mon0 := nodeNamed(t, in.Chains[1], "m0"), nodeNamed(t, in.Chains[1], "mon0")
	if res.Assign[m0].Platform != hw.PISA || res.Assign[mon0].Platform == hw.PISA {
		t.Fatalf("m0 on %v, mon0 on %v; want m0 alone on the switch", res.Assign[m0].Platform, res.Assign[mon0].Platform)
	}
	if _, err := Compile(in, onSwitch(res, mon0)); err == nil || !strings.Contains(err.Error(), "no P4 library program for Monitor") {
		t.Errorf("Monitor on the switch: err = %v, want no P4 library program", err)
	}
	conflictingMatch(t)
	if _, err := Compile(in, res); !errors.Is(err, p4.ErrParserConflict) {
		t.Errorf("conflicting parsers: err = %v, want %v", err, p4.ErrParserConflict)
	}
}

// TestApplyRefusesWhatCannotRender: Apply refuses the same two placements
// for an admitted chain before it writes anything: the deployment keeps its
// placement, paths, switch entries and subgroups, and still applies the
// unedited admission afterwards.
func TestApplyRefusesWhatCannotRender(t *testing.T) {
	both, _ := placeSpec(t, hw.NewPaperTestbed(), linearSpec+matchSpec)
	in := &placer.Input{Topo: hw.NewPaperTestbed(hw.WithServers(2)), DB: profile.DefaultDB(),
		Restrict: evalRestrict, HeadroomCores: 2, Chains: both.Chains[:1:1]}
	res, err := placer.Place(placer.SchemeLemur, in)
	if err != nil || !res.Feasible {
		t.Fatalf("place: %v %+v", err, res)
	}
	d, err := Compile(in, res)
	if err != nil {
		t.Fatal(err)
	}
	grown := *in
	grown.Chains = both.Chains
	dl := placer.Delta{Admit: []int{1}}
	rep, err := placer.Reconfigure(d.Result, &grown, dl)
	if err != nil || rep.Outcome != placer.AdmitIncremental {
		t.Fatalf("admit: %v %+v", err, rep)
	}
	next := rep.Result
	if next.Assign[nodeNamed(t, grown.Chains[1], "m0")].Platform != hw.PISA {
		t.Fatal("the admitted m0 is not on the switch")
	}
	before := struct {
		res            *placer.Result
		paths, entries int
		subgroups      int
	}{d.Result, len(d.ChainPaths), d.Switch.EntryCount(), d.subgroupCount()}
	unchanged := func(what string) {
		t.Helper()
		if d.Result != before.res || len(d.ChainPaths) != before.paths ||
			d.Switch.EntryCount() != before.entries || d.subgroupCount() != before.subgroups {
			t.Errorf("%s: the refused Apply wrote to the deployment", what)
		}
	}

	mon0 := nodeNamed(t, grown.Chains[1], "mon0")
	if _, err := d.Apply(&grown, onSwitch(next, mon0), dl); err == nil || !strings.Contains(err.Error(), "no P4 library program for Monitor") {
		t.Errorf("Monitor on the switch: err = %v, want no P4 library program", err)
	}
	unchanged("no library program")

	orig := p4.Library["Match"]
	conflictingMatch(t)
	if _, err := d.Apply(&grown, next, dl); !errors.Is(err, p4.ErrParserConflict) {
		t.Errorf("conflicting parsers: err = %v, want %v", err, p4.ErrParserConflict)
	}
	unchanged("parser conflict")

	p4.Library["Match"] = orig
	if _, err := d.Apply(&grown, next, dl); err != nil {
		t.Fatalf("the unedited admission after two refusals: %v", err)
	}
	if !strings.Contains(d.Artifacts().P4Source, "table guard_m0_match_tbl {") {
		t.Error("the admitted chain's Match table is not in the rendered program")
	}
}

// TestArtifactsReadOnly: rendering reads the deployment only. After
// applyTrials' compiles and deltas, two Artifacts calls are deep-equal, and
// four concurrent ones (run under -race) equal them.
func TestArtifactsReadOnly(t *testing.T) {
	applyTrials(t, func(trial, step int, dl placer.Delta, d *Deployment) {
		want := d.Artifacts()
		if again := d.Artifacts(); !reflect.DeepEqual(want, again) {
			t.Fatalf("trial %d step %d: a second render differs from the first", trial, step)
		}
		got := make([]*Artifacts, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = d.Artifacts()
			}()
		}
		wg.Wait()
		for i, a := range got {
			if !reflect.DeepEqual(want, a) {
				t.Fatalf("trial %d step %d: concurrent render %d differs from a serial one", trial, step, i)
			}
		}
	})
}
