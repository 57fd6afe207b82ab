package metacompiler_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// oracleRack is one rack of the oracle matrix with the chain sets placed on it.
type oracleRack struct {
	desc string
	opts []hw.TestbedOption
	sets [][]int
}

var oracleRacks = []oracleRack{
	{"servers=4", []hw.TestbedOption{hw.WithServers(4)}, [][]int{{1, 2, 3, 4, 5}}},
	{"servers=16", []hw.TestbedOption{hw.WithServers(16)}, [][]int{{1, 2, 3, 4, 5}}},
	{"servers=64", []hw.TestbedOption{hw.WithServers(64)}, [][]int{{1, 2, 3, 4, 5}}},
	{"smartnic", []hw.TestbedOption{hw.WithSmartNIC()}, [][]int{{5}, {3, 5}}},
}

var oracleDeltas = []float64{0.5, 1.0, 1.5}

// oracleInput builds fresh graphs for chains set at delta times their base
// rates on topo.
func oracleInput(t testing.TB, topo *hw.Topology, set []int, delta float64) *placer.Input {
	t.Helper()
	db := profile.DefaultDB()
	bases, err := experiments.BaseRates(set, topo, db)
	if err != nil {
		t.Fatal(err)
	}
	tmins := make([]float64, len(set))
	for i := range set {
		tmins[i] = delta * bases[i]
	}
	graphs, err := experiments.BuildChains(set, tmins, hw.Gbps(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &placer.Input{Chains: graphs, Topo: topo, DB: db, Restrict: experiments.EvalRestrict,
		BruteForceBudget: 2000}
}

// TestCompileMatchesReference: Compile, an empty deployment plus Apply's
// install half, stands up what the install sequence Compile used to keep
// of its own stood up — the same service paths, switch entries and
// classifier rules by (SPI, SI), per-server subgroups with the same names,
// core shares, NUMA flags and placer subgroups, the same NIC programs and
// byte-identical artifacts — over chains 1-5 at three deltas on 4, 16 and
// 64 servers and on the SmartNIC rack, placed by every scheme.
func TestCompileMatchesReference(t *testing.T) {
	compiled, nicPrograms := 0, 0
	for _, rack := range oracleRacks {
		topo := hw.NewPaperTestbed(rack.opts...)
		for _, set := range rack.sets {
			for _, delta := range oracleDeltas {
				in := oracleInput(t, topo, set, delta)
				for _, s := range placer.Schemes() {
					desc := fmt.Sprintf("%s chains=%v delta=%.1f scheme=%s", rack.desc, set, delta, s)
					res, err := placer.Place(s, in)
					if err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
					if !res.Feasible {
						continue
					}
					want, err := metacompiler.CompileReference(in, res)
					if err != nil {
						t.Fatalf("%s: reference: %v", desc, err)
					}
					got, err := metacompiler.Compile(in, res)
					if err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
					if w, g := renderDeployment(want), renderDeployment(got); w != g {
						t.Fatalf("%s: Compile differs from the reference: %s", desc, firstDiff(w, g))
					}
					compiled++
					for _, nic := range got.NICs {
						nicPrograms += nic.ProgramCount()
					}
				}
			}
		}
	}
	// 39 of the 90 cells place feasibly; the floor keeps the matrix from
	// shrinking to nothing unnoticed.
	if compiled < 35 || nicPrograms == 0 {
		t.Fatalf("oracle compared %d deployments with %d NIC programs; want >= 35 and some offload", compiled, nicPrograms)
	}
}

// TestCompileAllocsNoWorse: standing a deployment up through Apply's install
// half allocates no more than the reference's own install sequence (1 %
// slack) at 4, 16 and 64 servers.
func TestCompileAllocsNoWorse(t *testing.T) {
	for _, servers := range []int{4, 16, 64} {
		in := oracleInput(t, hw.NewPaperTestbed(hw.WithServers(servers)), []int{1, 2, 3, 4}, 1.0)
		res, err := placer.Place(placer.SchemeLemur, in)
		if err != nil || !res.Feasible {
			t.Fatalf("servers=%d: place: %v %+v", servers, err, res)
		}
		compile := func(f func(*placer.Input, *placer.Result) (*metacompiler.Deployment, error)) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := f(in, res); err != nil {
					t.Fatal(err)
				}
			})
		}
		ref, got := compile(metacompiler.CompileReference), compile(metacompiler.Compile)
		t.Logf("servers=%d: Compile %.0f allocs, reference %.0f", servers, got, ref)
		if got > ref*1.01 {
			t.Errorf("servers=%d: Compile allocates %.0f objects, reference %.0f (+1%% allowed)", servers, got, ref)
		}
	}
}

// renderDeployment is the canonical rendering of a deployment's installed
// state: everything in placement, path or (SPI, SI) order, NFs by name and
// placer subgroups by name.
func renderDeployment(d *metacompiler.Deployment) string {
	var b strings.Builder
	for ci, sps := range d.ChainPaths {
		for _, sp := range sps {
			fmt.Fprintf(&b, "path spi=%d owned=%d nodes=", sp.SPI, sp.OwnedFrom)
			for _, n := range sp.Nodes {
				b.WriteString(n.Name() + " ")
			}
			fmt.Fprintf(&b, "(slot %d)\n", ci)
			for si := 0; si <= sp.Length(); si++ {
				if e := d.Switch.Entry(sp.SPI, uint8(si)); e != nil {
					fmt.Fprintf(&b, "  entry si=%d %s\n", si, renderEntry(e))
				}
			}
		}
	}
	fmt.Fprintf(&b, "entries=%d rules=%d\n", d.Switch.EntryCount(), d.Switch.ClassifierRuleCount())
	// The classifier keeps its rules to itself; read them in match order.
	rules := reflect.ValueOf(d.Switch).Elem().FieldByName("rules")
	for i := 0; i < rules.Len(); i++ {
		r := rules.Index(i)
		filter := "*"
		if f := r.FieldByName("Filter"); !f.IsNil() {
			filter = f.Elem().FieldByName("src").String()
		}
		fmt.Fprintf(&b, "rule spi=%d si=%d filter=%q\n", r.FieldByName("SPI").Uint(), r.FieldByName("SI").Uint(), filter)
	}
	for _, psg := range d.Result.Subgroups {
		fmt.Fprintf(&b, "shares %s %v\n", psg.Name(), d.Shares[psg])
	}
	servers := make([]string, 0, len(d.Pipelines))
	for name := range d.Pipelines {
		servers = append(servers, name)
	}
	sort.Strings(servers)
	for _, name := range servers {
		for _, sg := range d.Pipelines[name].Subgroups() {
			psg := "-"
			if p := d.SubgroupOf[sg]; p != nil {
				psg = p.Name()
			}
			fmt.Fprintf(&b, "subgroup %s %s spi=%d si=%d advance=%d nfs=%s branches=%d cycles=%v shares=%v of=%s\n",
				name, sg.Name, sg.SPI, sg.EntrySI, sg.AdvanceSI, nfNames(sg.NFs), len(sg.Branches),
				sg.CyclesPerPkt, sg.Shares, psg)
		}
	}
	nics := make([]string, 0, len(d.NICs))
	for name := range d.NICs {
		nics = append(nics, name)
	}
	sort.Strings(nics)
	for _, name := range nics {
		for _, pp := range d.NICs[name].PathPrograms() {
			fmt.Fprintf(&b, "nic %s %s advance=%d nfs=%s\n", name, pp.Prog.Name, pp.AdvanceSI, nfNames(pp.NFs))
		}
	}
	a := d.Artifacts()
	ebpf := 0
	for _, src := range a.EBPFSources {
		ebpf += strings.Count(src, "\n")
	}
	fmt.Fprintf(&b, "lines p4=%d steering=%d handwritten=%d bess=%d ebpf=%d\n%s",
		a.P4TotalLines, a.P4SteeringLines, a.HandwrittenP4Lines, a.BESSLines, ebpf, a.P4Source)
	for _, m := range []map[string]string{a.BESSScripts, a.EBPFSources} {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "== %s\n%s", name, m[name])
		}
	}
	return b.String()
}

func renderEntry(e *pisa.PathEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "apply=%s advance=%d encap=%v decap=%v out=%s:%s", nfNames(e.Apply), e.AdvanceSI,
		e.Encap, e.Decap, e.Out.Kind, e.Out.Target)
	for _, br := range e.Branches {
		fmt.Fprintf(&b, " branch(%v w=%v -> %d/%d)", br.Filter, br.Weight, br.SPI, br.SI)
	}
	return b.String()
}

func nfNames[T interface{ Name() string }](nfs []T) string {
	names := make([]string, len(nfs))
	for i, fn := range nfs {
		names[i] = fn.Name()
	}
	return strings.Join(names, ",")
}

// firstDiff names the first line where two renderings part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n want %s\n  got %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}
