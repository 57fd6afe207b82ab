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
	out, err := nsh.EncapInPlace(frame(dport), spi, si)
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
	if _, err := pl.ProcessFrameInPlace(encFrame(t, 5, 5, 80), &nf.Env{}); !errors.Is(err, errNoSubgroup) {
		t.Errorf("unknown path: %v", err)
	}
	sg := mkSub(t, "sg0")
	if err := pl.Add(sg); err != nil {
		t.Fatal(err)
	}
	dup := mkSub(t, "sg1")
	if err := pl.Add(dup); !errors.Is(err, errDuplicatePath) {
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
	if err := pl.Add(b); !errors.Is(err, errOversubscribe) {
		t.Errorf("err = %v, want errOversubscribe", err)
	}
	// Rollback: pipeline still has only subgroup a and path 2/10 is free.
	if len(pl.Subgroups()) != 1 {
		t.Errorf("rollback failed: %d subgroups", len(pl.Subgroups()))
	}
	b.Shares = []CoreShare{{Core: 2, Fraction: 0.3}}
	if err := pl.Add(b); err != nil {
		t.Errorf("exactly-full core should fit: %v", err)
	}
	if load := pl.coreLoad(2); math.Abs(load-1.0) > 1e-9 {
		t.Errorf("core 2 load = %v", load)
	}
}

// TestOversubscribeErrorDeterministic: a subgroup that overfills two cores
// is refused naming the first of them in its share order, on every run.
func TestOversubscribeErrorDeterministic(t *testing.T) {
	for run := 0; run < 50; run++ {
		pl := NewPipeline(server())
		a := mkSub(t, "a")
		a.Shares = []CoreShare{{Core: 1, Fraction: 0.8}, {Core: 3, Fraction: 0.8}}
		if err := pl.Add(a); err != nil {
			t.Fatal(err)
		}
		b := mkSub(t, "b")
		b.SPI = 2
		b.Shares = []CoreShare{{Core: 3, Fraction: 0.5}, {Core: 1, Fraction: 0.5}}
		err := pl.Add(b)
		if !errors.Is(err, errOversubscribe) || !strings.Contains(err.Error(), "core 3 at 1.30") {
			t.Fatalf("run %d: err = %v, want core 3 at 1.30", run, err)
		}
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
	sg.Branches = []bpf.Branch{
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

// schedulers returns WriteSchedulers' text on its own.
func schedulers(pl *Pipeline, rateCaps, slackSec map[string]float64) string {
	var b strings.Builder
	WriteSchedulers(&b, pl, rateCaps, slackSec)
	return b.String()
}

// TestSchedulerTrees: each used core, in core order, gets a round-robin
// root over its residents in pipeline order, a capped subgroup under a
// rate_limit node on every core it shares; an empty pipeline writes nothing.
func TestSchedulerTrees(t *testing.T) {
	pl := NewPipeline(server())
	if got := schedulers(pl, nil, nil); got != "" {
		t.Errorf("empty pipeline wrote %q", got)
	}
	b := mkSub(t, "b")
	b.SPI = 2
	b.Shares = []CoreShare{{Core: 2, Fraction: 1}, {Core: 1, Fraction: 0.5}}
	a := mkSub(t, "a")
	a.Shares = []CoreShare{{Core: 1, Fraction: 0.5}}
	if err := pl.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := pl.Add(a); err != nil {
		t.Fatal(err)
	}
	const want = "core 1:\n" +
		"  round_robin\n" +
		"    rate_limit 1000000000 bps\n" +
		"      subgroup b\n" +
		"    subgroup a\n" +
		"core 2:\n" +
		"  round_robin\n" +
		"    rate_limit 1000000000 bps\n" +
		"      subgroup b\n"
	if got := schedulers(pl, map[string]float64{"b": 1e9, "a": 0}, nil); got != want {
		t.Errorf("trees =\n%s\nwant\n%s", got, want)
	}
}

// TestSchedulerTreesEDF: a core hosting a deadline-bearing subgroup gets a
// deadline_edf root ordered by ascending slack (deadline-free residents
// last, name-ordered); cores with no deadline resident keep round-robin
// verbatim; and nil or empty slack input gives round-robin trees throughout.
func TestSchedulerTreesEDF(t *testing.T) {
	pl := NewPipeline(server())
	c := mkSub(t, "c") // core 1, no deadline
	c.SPI = 3
	c.Shares = []CoreShare{{Core: 1, Fraction: 0.5}}
	a := mkSub(t, "a") // core 1, slack 30us
	a.Shares = []CoreShare{{Core: 1, Fraction: 0.25}}
	b := mkSub(t, "b") // cores 1+2, slack 10us (most urgent)
	b.SPI = 2
	b.Shares = []CoreShare{{Core: 1, Fraction: 0.25}, {Core: 2, Fraction: 1}}
	d := mkSub(t, "d") // core 3 alone, no deadline: stays round-robin
	d.SPI = 4
	d.Shares = []CoreShare{{Core: 3, Fraction: 1}}
	for _, sg := range []*Subgroup{c, a, b, d} {
		if err := pl.Add(sg); err != nil {
			t.Fatal(err)
		}
	}
	caps := map[string]float64{"b": 1e9}
	const want = "core 1:\n" +
		"  deadline_edf\n" +
		"    rate_limit 1000000000 bps\n" +
		"      subgroup b slack 10.0us\n" +
		"    subgroup a slack 30.0us\n" +
		"    subgroup c\n" +
		"core 2:\n" +
		"  deadline_edf\n" +
		"    rate_limit 1000000000 bps\n" +
		"      subgroup b slack 10.0us\n" +
		"core 3:\n" +
		"  round_robin\n" +
		"    subgroup d\n"
	if got := schedulers(pl, caps, map[string]float64{"a": 30e-6, "b": 10e-6}); got != want {
		t.Errorf("trees =\n%s\nwant\n%s", got, want)
	}

	// Deadline-free: nil and empty slack give the same round-robin trees.
	plain := schedulers(pl, caps, nil)
	if empty := schedulers(pl, caps, map[string]float64{}); plain != empty {
		t.Errorf("trees diverge between nil and empty slack:\n%s\nvs\n%s", plain, empty)
	}
	if strings.Contains(plain, "deadline_edf") || strings.Contains(plain, "slack") {
		t.Errorf("deadline-free trees:\n%s", plain)
	}
}

// TestSchedulerRendering pins WriteSchedulers character for character on a
// core number past one digit, a rate wider than the digit buffer's usual
// load, a sub-1 bps cap, slacks that round both ways and a zero slack, all
// appended after what the script builder already holds.
func TestSchedulerRendering(t *testing.T) {
	pl := NewPipeline(server())
	for i, name := range []string{"c2/y", "c1/x", "c0/a..b"} {
		sg := mkSub(t, name)
		sg.SPI = uint32(i + 1)
		sg.Shares = []CoreShare{{Core: 11, Fraction: 0.3}}
		if err := pl.Add(sg); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	b.WriteString("# scheduler\n")
	WriteSchedulers(&b, pl, map[string]float64{"c0/a..b": 2.5e11, "c2/y": 0.4},
		map[string]float64{"c0/a..b": 12.34e-6, "c1/x": 12.36e-6})
	const want = "# scheduler\n" +
		"core 11:\n" +
		"  deadline_edf\n" +
		"    rate_limit 250000000000 bps\n" +
		"      subgroup c0/a..b slack 12.3us\n" +
		"    subgroup c1/x slack 12.4us\n" +
		"    rate_limit 0 bps\n" +
		"      subgroup c2/y\n"
	if got := b.String(); got != want {
		t.Errorf("rendering =\n%s\nwant\n%s", got, want)
	}
	b.Reset()
	WriteSchedulers(&b, pl, nil, map[string]float64{"c1/x": 0})
	if got := b.String(); !strings.Contains(got, "    subgroup c1/x slack 0.0us\n") {
		t.Errorf("zero slack =\n%s", got)
	}
}
