package metacompiler

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/p4"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

var evalRestrict = map[string][]hw.Platform{"IPv4Fwd": {hw.PISA}}

func compileSpec(t *testing.T, topo *hw.Topology, src string) (*placer.Input, *Deployment) {
	t.Helper()
	in, res := placeSpec(t, topo, src)
	d, err := Compile(in, res)
	if err != nil {
		t.Fatal(err)
	}
	return in, d
}

// placeSpec parses src and places it by Lemur, failing on an infeasible
// placement.
func placeSpec(t *testing.T, topo *hw.Topology, src string) (*placer.Input, *placer.Result) {
	t.Helper()
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := &placer.Input{Topo: topo, DB: profile.DefaultDB(), Restrict: evalRestrict}
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
	return in, res
}

const linearSpec = `
chain web {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8  dst = 172.16.0.0/12 }
  acl0 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}`

func TestCompileLinearChain(t *testing.T) {
	_, d := compileSpec(t, hw.NewPaperTestbed(), linearSpec)
	if len(d.ChainPaths) != 1 || len(d.ChainPaths[0]) != 1 {
		t.Fatalf("paths = %+v", d.ChainPaths)
	}
	sp := d.ChainPaths[0][0]
	if sp.Length() != 3 || sp.SPI == 0 {
		t.Errorf("service path = %+v", sp)
	}
	// Switch entries: head (acl0 at SI=3), tail (fwd0 at SI=1).
	if d.Switch.Entry(sp.SPI, 3) == nil {
		t.Error("no head entry at SI=3")
	}
	if d.Switch.Entry(sp.SPI, 1) == nil {
		t.Error("no tail entry at SI=1")
	}
	// Server pipeline hosts enc0.
	pl := d.Pipelines["nf-server-0"]
	if len(pl.Subgroups()) != 1 {
		t.Fatalf("server subgroups = %d", len(pl.Subgroups()))
	}
	sg := pl.Subgroups()[0]
	if sg.EntrySI != 2 || sg.AdvanceSI != 1 {
		t.Errorf("subgroup si = %d advance = %d, want 2/1", sg.EntrySI, sg.AdvanceSI)
	}
	if len(sg.Shares) == 0 {
		t.Error("primary subgroup got no cores")
	}
	if d.SubgroupOf[sg] == nil {
		t.Error("no placer-subgroup mapping")
	}
}

func TestCompileArtifacts(t *testing.T) {
	_, d := compileSpec(t, hw.NewPaperTestbed(), linearSpec)
	a := d.Artifacts()
	if a.P4TotalLines < 30 {
		t.Errorf("P4 lines = %d, suspiciously few:\n%s", a.P4TotalLines, a.P4Source)
	}
	if a.P4SteeringLines <= 0 || a.P4SteeringLines >= a.P4TotalLines {
		t.Errorf("steering lines = %d of %d", a.P4SteeringLines, a.P4TotalLines)
	}
	if a.HandwrittenP4Lines <= 0 {
		t.Error("no handwritten accounting")
	}
	share := a.AutoGeneratedShare()
	if share <= 0 || share >= 1 {
		t.Errorf("auto-generated share = %v", share)
	}
	for _, frag := range []string{"unified_parser", "header nsh_t", "chain_steering", "nsh_encap()", "acl_tbl"} {
		if !strings.Contains(a.P4Source, frag) {
			t.Errorf("P4 source missing %q", frag)
		}
	}
	script := a.BESSScripts["nf-server-0"]
	for _, frag := range []string{"NSHdecap", "NSHencap", "Encrypt", "round_robin", "rate_limit"} {
		if !strings.Contains(script, frag) {
			t.Errorf("BESS script missing %q:\n%s", frag, script)
		}
	}
	if a.BESSLines <= 0 {
		t.Error("no BESS line accounting")
	}
}

// libraryCopy deep-copies the P4 library, so a later comparison sees any
// write through a shared slice or parse graph. Merging into an empty graph
// copies every state.
func libraryCopy(t *testing.T) map[string]p4.Program {
	out := map[string]p4.Program{}
	for class, p := range p4.Library {
		cp := *p
		cp.Headers, cp.Control = slices.Clone(p.Headers), slices.Clone(p.Control)
		cp.Tables = nil
		for _, t := range p.Tables {
			t.Keys, t.Actions = slices.Clone(t.Keys), slices.Clone(t.Actions)
			cp.Tables = append(cp.Tables, t)
		}
		if p.Parser != nil {
			cp.Parser = &p4.Graph{Start: p.Parser.Start, States: map[string]*p4.State{}}
			if err := cp.Parser.Merge(p.Parser); err != nil {
				t.Fatal(err)
			}
		}
		out[class] = cp
	}
	return out
}

// TestP4TablesMangled: the unified program names each switch-resident NF's
// tables <chain>_<node>_<table>, the library's own names appear only inside
// those, and rendering leaves p4.Library as it was.
func TestP4TablesMangled(t *testing.T) {
	before := libraryCopy(t)
	_, d := compileSpec(t, hw.NewPaperTestbed(), linearSpec)
	src := d.Artifacts().P4Source
	for _, frag := range []string{"table web_acl0_acl_tbl {", "table web_fwd0_fwd_tbl {"} {
		if !strings.Contains(src, frag) {
			t.Errorf("P4 source missing %q:\n%s", frag, src)
		}
	}
	for _, frag := range []string{"table acl_tbl", "table fwd_tbl"} {
		if strings.Contains(src, frag) {
			t.Errorf("P4 source has the unmangled %q", frag)
		}
	}
	if !reflect.DeepEqual(libraryCopy(t), before) {
		t.Error("Compile modified p4.Library")
	}
}

func TestCompileBranchedChain(t *testing.T) {
	src := `
chain split {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8 }
  bpf0 = BPF()
  enc0 = Encrypt()
  dec0 = Decrypt()
  fwd0 = IPv4Fwd()
  bpf0 -> [filter = "udp.dport == 53", weight = 0.5] enc0
  bpf0 -> [weight = 0.5] dec0
  enc0 -> fwd0
  dec0 -> fwd0
}`
	_, d := compileSpec(t, hw.NewPaperTestbed(), src)
	paths := d.ChainPaths[0]
	if len(paths) != 2 {
		t.Fatalf("paths = %d", len(paths))
	}
	if paths[0].OwnedFrom != 0 || paths[1].OwnedFrom != 1 {
		t.Errorf("ownership = %d/%d, want 0/1", paths[0].OwnedFrom, paths[1].OwnedFrom)
	}
	// The branch entry must retag onto both paths.
	head := d.Switch.Entry(paths[0].SPI, uint8(paths[0].Length()))
	if head == nil {
		t.Fatal("no head entry")
	}
	if len(head.Branches) != 2 {
		t.Fatalf("branches = %d, want 2", len(head.Branches))
	}
	if head.Branches[0].Filter == nil {
		t.Error("first branch lost its filter")
	}
	if head.Branches[1].SPI != paths[1].SPI {
		t.Errorf("second branch spi = %d, want %d", head.Branches[1].SPI, paths[1].SPI)
	}
	// Both server NFs installed under their own SPIs.
	pl := d.Pipelines["nf-server-0"]
	if got := len(pl.Subgroups()); got != 2 {
		t.Errorf("server subgroups = %d, want 2", got)
	}
}

func TestCompileSmartNICChain(t *testing.T) {
	src := `
chain nic {
  slo { tmin = 8Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8 }
  url0 = UrlFilter()
  fe0  = FastEncrypt()
  fwd0 = IPv4Fwd()
  url0 -> fe0 -> fwd0
}`
	_, d := compileSpec(t, hw.NewPaperTestbed(hw.WithSmartNIC()), src)
	nic := d.NICs["agilio-cx-40"]
	if nic == nil {
		t.Fatal("no NIC runtime")
	}
	sp := d.ChainPaths[0][0]
	// fe0 at position 1 -> SI 2 on the NIC.
	srcs := d.Artifacts().EBPFSources
	if len(srcs) != 1 {
		t.Fatalf("eBPF sources = %d", len(srcs))
	}
	for name, src := range srcs {
		if !strings.Contains(src, "XDP_PASS") || !strings.Contains(name, "fe0") {
			t.Errorf("bad eBPF source %s:\n%s", name, src)
		}
	}
	_ = sp
}

func TestCompileRejectsInfeasible(t *testing.T) {
	in, d := compileSpec(t, hw.NewPaperTestbed(), linearSpec)
	_ = d
	bad := &placer.Result{Feasible: false, Reason: "nope"}
	if _, err := Compile(in, bad); err == nil {
		t.Error("want error for infeasible placement")
	}
}

// TestCompileRefusesShortDedupChunk: a spec whose Dedup chunk is shorter
// than its 8-byte shim is refused by Compile, which instantiates the NFs,
// instead of hanging or panicking in the first frame walk.
func TestCompileRefusesShortDedupChunk(t *testing.T) {
	for _, tc := range []struct {
		chunk string
		ok    bool
	}{
		{"0", false}, {"-8", false}, {"4", false}, {"8", true},
	} {
		in, res := placeSpec(t, hw.NewPaperTestbed(), `
chain web {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8  dst = 172.16.0.0/12 }
  ded0 = Dedup(chunk = `+tc.chunk+`)
  fwd0 = IPv4Fwd()
  ded0 -> fwd0
}`)
		_, err := Compile(in, res)
		if tc.ok && err != nil {
			t.Errorf("chunk=%s: %v", tc.chunk, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "Dedup web/ded0")) {
			t.Errorf("chunk=%s: Compile error %v, want one naming Dedup web/ded0", tc.chunk, err)
		}
	}
}

func TestCoreAssignmentSkipsDemuxCore(t *testing.T) {
	_, d := compileSpec(t, hw.NewPaperTestbed(), linearSpec)
	for _, pl := range d.Pipelines {
		for _, sg := range pl.Subgroups() {
			for _, s := range sg.Shares {
				if s.Core == 0 {
					t.Errorf("subgroup %s scheduled on the reserved demux core", sg.Name)
				}
			}
		}
	}
}
