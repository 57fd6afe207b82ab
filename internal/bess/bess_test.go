package bess

import (
	"errors"
	"math"
	"strings"
	"testing"

	"lemur/internal/bpf"
	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
)

func server() *hw.ServerSpec { return hw.NewPaperTestbed().Servers[0] }

func frame(dport uint16) []byte {
	return packet.Builder{
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{172, 16, 0, 1},
		SrcPort: 4000, DstPort: dport, Payload: []byte("payload-bytes!!!"),
	}.Build()
}

func encFrame(t *testing.T, spi uint32, si uint8, dport uint16) []byte {
	t.Helper()
	out, err := nsh.Encap(frame(dport), spi, si)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mkSub(t *testing.T, name string, classes ...string) *Subgroup {
	t.Helper()
	sg := &Subgroup{Name: name, SPI: 1, EntrySI: 10, AdvanceSI: 2, CyclesPerPkt: 1000,
		Shares: []CoreShare{{Core: 1, Fraction: 1}}}
	for i, c := range classes {
		inst, err := nf.New(c, name+"-"+c+string(rune('0'+i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		sg.NFs = append(sg.NFs, inst)
	}
	return sg
}

func TestPipelineProcessFrame(t *testing.T) {
	pl := NewPipeline(server())
	sg := mkSub(t, "sg0", "Monitor", "IPv4Fwd")
	if err := pl.Add(sg); err != nil {
		t.Fatal(err)
	}
	out, err := pl.ProcessFrameInPlace(encFrame(t, 1, 10, 80), &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	spi, si, err := nsh.Tag(out)
	if err != nil || spi != 1 || si != 8 {
		t.Fatalf("out tag = %d/%d, %v (want 1/8)", spi, si, err)
	}
	if sg.Processed != 1 {
		t.Errorf("Processed = %d", sg.Processed)
	}
	mon := sg.NFs[0].(*nf.Monitor)
	if mon.NumFlows() != 1 {
		t.Errorf("monitor saw %d flows, want 1", mon.NumFlows())
	}
}

func TestPipelineDrop(t *testing.T) {
	pl := NewPipeline(server())
	sg := mkSub(t, "sg0", "ACL") // default synthetic rules won't match 172.16/12 dst
	if err := pl.Add(sg); err != nil {
		t.Fatal(err)
	}
	out, err := pl.ProcessFrameInPlace(encFrame(t, 1, 10, 80), &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Error("dropped packet must return nil frame")
	}
}

func TestPipelineErrors(t *testing.T) {
	pl := NewPipeline(server())
	if _, err := pl.ProcessFrameInPlace(frame(80), &nf.Env{}); err == nil {
		t.Error("untagged frame must fail demux")
	}
	if _, err := pl.ProcessFrameInPlace(encFrame(t, 5, 5, 80), &nf.Env{}); !errors.Is(err, ErrNoSubgroup) {
		t.Errorf("unknown path: %v", err)
	}
	sg := mkSub(t, "sg0")
	if err := pl.Add(sg); err != nil {
		t.Fatal(err)
	}
	dup := mkSub(t, "sg1")
	if err := pl.Add(dup); !errors.Is(err, ErrDuplicatePath) {
		t.Errorf("dup path: %v", err)
	}
	bad := mkSub(t, "sg2")
	bad.SPI = 2
	bad.Shares = []CoreShare{{Core: 99, Fraction: 1}}
	if err := pl.Add(bad); err == nil {
		t.Error("core out of range must fail")
	}
	bad.Shares = []CoreShare{{Core: 1, Fraction: 1.5}}
	if err := pl.Add(bad); err == nil {
		t.Error("fraction > 1 must fail")
	}
}

func TestCoreOversubscription(t *testing.T) {
	pl := NewPipeline(server())
	a := mkSub(t, "a")
	a.Shares = []CoreShare{{Core: 2, Fraction: 0.7}}
	if err := pl.Add(a); err != nil {
		t.Fatal(err)
	}
	b := mkSub(t, "b")
	b.SPI = 2
	b.Shares = []CoreShare{{Core: 2, Fraction: 0.5}}
	if err := pl.Add(b); !errors.Is(err, ErrOversubscribe) {
		t.Errorf("err = %v, want ErrOversubscribe", err)
	}
	// Rollback: pipeline still has only subgroup a and path 2/10 is free.
	if len(pl.Subgroups()) != 1 {
		t.Errorf("rollback failed: %d subgroups", len(pl.Subgroups()))
	}
	b.Shares = []CoreShare{{Core: 2, Fraction: 0.3}}
	if err := pl.Add(b); err != nil {
		t.Errorf("exactly-full core should fit: %v", err)
	}
	if load := pl.CoreLoad()[2]; math.Abs(load-1.0) > 1e-9 {
		t.Errorf("core 2 load = %v", load)
	}
}

func TestSIUnderflow(t *testing.T) {
	pl := NewPipeline(server())
	sg := mkSub(t, "sg0")
	sg.EntrySI = 1
	sg.AdvanceSI = 5
	if err := pl.Add(sg); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.ProcessFrameInPlace(encFrame(t, 1, 1, 80), &nf.Env{}); err == nil {
		t.Error("SI underflow must error")
	}
}

func TestBranchReTag(t *testing.T) {
	pl := NewPipeline(server())
	sg := mkSub(t, "sg0")
	sg.Branches = []Branch{
		{Filter: bpf.MustCompile("udp.dport == 53"), SPI: 30, SI: 4},
		{Filter: nil, SPI: 31, SI: 4},
	}
	if err := pl.Add(sg); err != nil {
		t.Fatal(err)
	}
	out, err := pl.ProcessFrameInPlace(encFrame(t, 1, 10, 53), &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	spi, si, _ := nsh.Tag(out)
	if spi != 30 || si != 4 {
		t.Errorf("branch tag = %d/%d, want 30/4", spi, si)
	}
	out2, _ := pl.ProcessFrameInPlace(encFrame(t, 1, 10, 80), &nf.Env{})
	spi2, _, _ := nsh.Tag(out2)
	if spi2 != 31 {
		t.Errorf("default branch = %d, want 31", spi2)
	}
}

func TestSchedulerTrees(t *testing.T) {
	pl := NewPipeline(server())
	a := mkSub(t, "a")
	a.Shares = []CoreShare{{Core: 1, Fraction: 0.5}}
	b := mkSub(t, "b")
	b.SPI = 2
	b.Shares = []CoreShare{{Core: 1, Fraction: 0.5}, {Core: 2, Fraction: 1}}
	if err := pl.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := pl.Add(b); err != nil {
		t.Fatal(err)
	}
	scheds := BuildSchedulersEDF(pl, map[string]float64{"b": 1e9}, nil)
	if len(scheds) != 2 {
		t.Fatalf("schedulers = %d, want 2 (cores 1,2)", len(scheds))
	}
	if scheds[0].Core != 1 || scheds[1].Core != 2 {
		t.Errorf("cores = %d,%d", scheds[0].Core, scheds[1].Core)
	}
	// Core 1 round-robins a and b; b is rate-limited.
	root := scheds[0].Root
	if root.Kind != RoundRobin || len(root.Children) != 2 {
		t.Fatalf("core 1 root = %+v", root)
	}
	// RR alternation.
	first := root.NextLeaf().Subgroup.Name
	second := root.NextLeaf().Subgroup.Name
	third := root.NextLeaf().Subgroup.Name
	if first == second || first != third {
		t.Errorf("rr order: %s %s %s", first, second, third)
	}
	// Rendering mentions the rate limit.
	if s := scheds[0].String(); !strings.Contains(s, "rate_limit") || !strings.Contains(s, "subgroup a") {
		t.Errorf("render:\n%s", s)
	}
	if (&SchedNode{Kind: RoundRobin}).NextLeaf() != nil {
		t.Error("empty tree must return nil")
	}
}

// TestSchedulerTreesEDF: a core hosting a deadline-bearing subgroup gets a
// Deadline root ordered by ascending slack (deadline-free residents last,
// name-ordered); cores with no deadline resident keep round-robin verbatim;
// and nil or empty slack input gives round-robin trees throughout.
func TestSchedulerTreesEDF(t *testing.T) {
	pl := NewPipeline(server())
	a := mkSub(t, "a") // core 1, slack 30us
	a.Shares = []CoreShare{{Core: 1, Fraction: 0.25}}
	b := mkSub(t, "b") // cores 1+2, slack 10us (most urgent)
	b.SPI = 2
	b.Shares = []CoreShare{{Core: 1, Fraction: 0.25}, {Core: 2, Fraction: 1}}
	c := mkSub(t, "c") // core 1, no deadline
	c.SPI = 3
	c.Shares = []CoreShare{{Core: 1, Fraction: 0.5}}
	d := mkSub(t, "d") // core 3 alone, no deadline: stays round-robin
	d.SPI = 4
	d.Shares = []CoreShare{{Core: 3, Fraction: 1}}
	for _, sg := range []*Subgroup{a, b, c, d} {
		if err := pl.Add(sg); err != nil {
			t.Fatal(err)
		}
	}
	slack := map[string]float64{"a": 30e-6, "b": 10e-6}
	scheds := BuildSchedulersEDF(pl, map[string]float64{"b": 1e9}, slack)
	if len(scheds) != 3 {
		t.Fatalf("schedulers = %d, want 3 (cores 1,2,3)", len(scheds))
	}
	// Core 1: Deadline root, b (slack 10us, rate-limited) before a (30us),
	// deadline-free c last.
	root := scheds[0].Root
	if root.Kind != Deadline || len(root.Children) != 3 {
		t.Fatalf("core 1 root = %+v", root)
	}
	if root.Children[0].Kind != RateLimit || !root.Children[0].HasSlack ||
		root.Children[0].Children[0].Subgroup.Name != "b" {
		t.Errorf("core 1 first child = %+v", root.Children[0])
	}
	if root.Children[1].Subgroup.Name != "a" || root.Children[2].Subgroup.Name != "c" {
		t.Errorf("core 1 order = %s, %s (want a, c)",
			root.Children[1].Subgroup.Name, root.Children[2].Subgroup.Name)
	}
	if root.Children[2].HasSlack {
		t.Error("deadline-free subgroup c must not carry slack")
	}
	// Strict priority: NextLeaf always returns the most urgent child.
	if got := root.NextLeaf().Subgroup.Name; got != "b" {
		t.Errorf("NextLeaf = %s, want b", got)
	}
	if got := root.NextLeaf().Subgroup.Name; got != "b" {
		t.Errorf("second NextLeaf = %s, want b (strict priority)", got)
	}
	// Core 2 hosts only b (deadline-bearing) -> Deadline root too.
	if scheds[1].Root.Kind != Deadline {
		t.Errorf("core 2 root kind = %v, want Deadline", scheds[1].Root.Kind)
	}
	// Core 3 hosts only deadline-free d -> round-robin verbatim.
	if scheds[2].Root.Kind != RoundRobin {
		t.Errorf("core 3 root kind = %v, want RoundRobin", scheds[2].Root.Kind)
	}
	// Rendering shows the policy and per-leaf slack.
	s := scheds[0].String()
	if !strings.Contains(s, "deadline_edf") || !strings.Contains(s, "subgroup b slack 10.0us") ||
		!strings.Contains(s, "subgroup c\n") {
		t.Errorf("render:\n%s", s)
	}
	if (&SchedNode{Kind: Deadline}).NextLeaf() != nil {
		t.Error("empty deadline tree must return nil")
	}

	// Deadline-free: nil and empty slack give the same round-robin trees.
	plain := BuildSchedulersEDF(pl, map[string]float64{"b": 1e9}, nil)
	empty := BuildSchedulersEDF(pl, map[string]float64{"b": 1e9}, map[string]float64{})
	if len(plain) != len(empty) {
		t.Fatalf("tree count %d vs %d", len(plain), len(empty))
	}
	for i := range plain {
		if plain[i].Root.Kind != RoundRobin {
			t.Errorf("core %d root kind = %v without deadlines, want RoundRobin", plain[i].Core, plain[i].Root.Kind)
		}
		if plain[i].String() != empty[i].String() {
			t.Errorf("core %d trees diverge between nil and empty slack:\n%s\nvs\n%s",
				plain[i].Core, plain[i].String(), empty[i].String())
		}
	}
}

// TestSchedulerRendering pins CoreScheduler.String (and the Render under
// it) character for character on a tree with every node kind, a rate wider
// than the digit buffer's usual load and slacks that round both ways: the
// rendering is appended piecewise, not formatted through fmt.
func TestSchedulerRendering(t *testing.T) {
	leaf := func(name string) *SchedNode { return &SchedNode{Kind: Leaf, Subgroup: &Subgroup{Name: name}} }
	urgent := leaf("c0/a..b")
	urgent.SlackSec, urgent.HasSlack = 12.34e-6, true
	zero := leaf("c1/x")
	zero.HasSlack = true
	cs := CoreScheduler{Core: 117, Root: &SchedNode{Kind: Deadline, Children: []*SchedNode{
		{Kind: RateLimit, RateBps: 2.5e11, Children: []*SchedNode{urgent}},
		zero,
		{Kind: RoundRobin, Children: []*SchedNode{leaf("c2/y"), {Kind: RateLimit, RateBps: 0.4}}},
	}}}
	const want = "core 117:\n" +
		"  deadline_edf\n" +
		"    rate_limit 250000000000 bps\n" +
		"      subgroup c0/a..b slack 12.3us\n" +
		"    subgroup c1/x slack 0.0us\n" +
		"    round_robin\n" +
		"      subgroup c2/y\n" +
		"      rate_limit 0 bps\n"
	if got := cs.String(); got != want {
		t.Errorf("String() =\n%s\nwant\n%s", got, want)
	}
	var b strings.Builder
	b.WriteString("# scheduler\n")
	cs.Render(&b)
	if got := b.String(); got != "# scheduler\n"+want {
		t.Errorf("Render after a prefix =\n%s", got)
	}
}
