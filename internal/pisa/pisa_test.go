package pisa

import (
	"errors"
	"testing"

	"lemur/internal/bpf"
	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
)

func spec() *hw.PISASpec { return hw.NewPaperTestbed().Switch }

func TestCompileIndependentTablesShareStage(t *testing.T) {
	tables := []LogicalTable{
		{Name: "a", SRAM: 1}, {Name: "b", SRAM: 1}, {Name: "c", SRAM: 1},
	}
	bin, err := Compile(spec(), tables)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Stages != 1 {
		t.Errorf("stages = %d, want 1 (independent tables pack together)", bin.Stages)
	}
}

func TestCompileDependencyChain(t *testing.T) {
	tables := []LogicalTable{
		{Name: "a", SRAM: 1},
		{Name: "b", SRAM: 1, Deps: []int{0}},
		{Name: "c", SRAM: 1, Deps: []int{1}},
	}
	bin, err := Compile(spec(), tables)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Stages != 3 {
		t.Errorf("stages = %d, want 3 (chain forces depth)", bin.Stages)
	}
	for i := 1; i < 3; i++ {
		if bin.StageOf[i] <= bin.StageOf[i-1] {
			t.Errorf("dependency violated: stage(%d)=%d <= stage(%d)=%d",
				i, bin.StageOf[i], i-1, bin.StageOf[i-1])
		}
	}
}

func TestCompileMemoryForcesSpread(t *testing.T) {
	// Two NAT-sized tables (12 SRAM blocks each, 16/stage): independent but
	// cannot share a stage.
	tables := []LogicalTable{
		{Name: "nat1", SRAM: 12}, {Name: "nat2", SRAM: 12},
	}
	bin, err := Compile(spec(), tables)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Stages != 2 {
		t.Errorf("stages = %d, want 2 (SRAM pressure)", bin.Stages)
	}
}

func TestCompileTableSlotLimit(t *testing.T) {
	sp := *spec()
	sp.TablesPerStage = 2
	tables := []LogicalTable{
		{Name: "a", SRAM: 1}, {Name: "b", SRAM: 1}, {Name: "c", SRAM: 1},
	}
	bin, err := Compile(&sp, tables)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Stages != 2 {
		t.Errorf("stages = %d, want 2 (table-slot pressure)", bin.Stages)
	}
}

func TestCompileOverflow(t *testing.T) {
	var tables []LogicalTable
	for i := 0; i < 13; i++ { // 13-deep chain on a 12-stage switch
		lt := LogicalTable{Name: "t", SRAM: 1}
		if i > 0 {
			lt.Deps = []int{i - 1}
		}
		tables = append(tables, lt)
	}
	bin, err := Compile(spec(), tables)
	if !errors.Is(err, ErrStageOverflow) {
		t.Fatalf("err = %v, want ErrStageOverflow", err)
	}
	if bin == nil || bin.Stages != 13 {
		t.Errorf("overflow binary should report needed stages: %+v", bin)
	}
}

func TestCompileBadInput(t *testing.T) {
	if _, err := Compile(spec(), []LogicalTable{{Name: "x", Deps: []int{0}}}); err == nil {
		t.Error("self/forward dep must fail")
	}
	if _, err := Compile(spec(), []LogicalTable{{Name: "x", SRAM: 999}}); err == nil {
		t.Error("oversized table must fail")
	}
}

func TestExtremeNATPacking(t *testing.T) {
	// The §5.2 extreme config modeled at the compiler level:
	// steering+BPF+encap folded into one stage-1 table, ten 12-SRAM NAT
	// tables (mutually exclusive branches — no deps between them, but SRAM
	// spreads them), and a final Fwd+decap table depending on all NATs.
	tables := []LogicalTable{{Name: "steer_bpf", SRAM: 1, TCAM: 1}}
	for i := 0; i < 10; i++ {
		tables = append(tables, LogicalTable{Name: "nat", SRAM: 12, Deps: []int{0}})
	}
	fwdDeps := make([]int, 10)
	for i := range fwdDeps {
		fwdDeps[i] = i + 1
	}
	tables = append(tables, LogicalTable{Name: "fwd_decap", SRAM: 2, TCAM: 1, Deps: fwdDeps})
	bin, err := Compile(spec(), tables)
	if err != nil {
		t.Fatalf("10-NAT program must fit: %v (stages=%d)", err, bin.Stages)
	}
	if bin.Stages != 12 {
		t.Errorf("stages = %d, want exactly 12", bin.Stages)
	}
	// With 11 NATs it must overflow.
	tables11 := append([]LogicalTable{}, tables[:11]...)
	tables11 = append(tables11, LogicalTable{Name: "nat", SRAM: 12, Deps: []int{0}})
	fwdDeps11 := make([]int, 11)
	for i := range fwdDeps11 {
		fwdDeps11[i] = i + 1
	}
	tables11 = append(tables11, LogicalTable{Name: "fwd_decap", SRAM: 2, TCAM: 1, Deps: fwdDeps11})
	if _, err := Compile(spec(), tables11); !errors.Is(err, ErrStageOverflow) {
		t.Errorf("11-NAT program must overflow, got %v", err)
	}
}

func TestConservativeEstimate(t *testing.T) {
	// §5.2: 12 tables cross-platform -> estimate 14, compiler fits 12.
	if got := ConservativeEstimate(12, true); got != 14 {
		t.Errorf("estimate = %d, want 14", got)
	}
	if got := ConservativeEstimate(12, false); got != 12 {
		t.Errorf("switch-only estimate = %d, want 12", got)
	}
}

func mkSwitch(t *testing.T) *Switch {
	t.Helper()
	return NewSwitch()
}

func ingressFrame(t *testing.T, dport uint16) []byte {
	t.Helper()
	return packet.Builder{
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{172, 16, 0, 9},
		SrcPort: 5555, DstPort: dport, Payload: []byte("data"),
	}.Build()
}

func TestSwitchClassifyApplyForward(t *testing.T) {
	s := mkSwitch(t)
	acl, _ := nf.New("ACL", "acl0", nf.Params{"allow_dst": "172.16.0.0/12"})
	s.AddClassifierRule(ClassifierRule{Filter: bpf.MustCompile("ip.src in 10.0.0.0/8"), SPI: 7, SI: 10})
	s.SetEntry(7, 10, &PathEntry{
		Apply: []nf.NF{acl}, Encap: true,
		Out: Forward{Kind: ToServer, Target: "nf-server-0"},
	})
	out, fwd, err := s.ProcessFrameInPlace(ingressFrame(t, 80), &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Kind != ToServer || fwd.Target != "nf-server-0" {
		t.Fatalf("fwd = %+v", fwd)
	}
	spi, si, err := nsh.Tag(out)
	if err != nil || spi != 7 || si != 10 {
		t.Fatalf("NSH tag = %d/%d, %v", spi, si, err)
	}
}

func TestSwitchNFDrop(t *testing.T) {
	s := mkSwitch(t)
	acl, _ := nf.New("ACL", "acl0", nf.Params{"allow_dst": "192.0.2.0/24"}) // nothing matches
	s.AddClassifierRule(ClassifierRule{SPI: 1, SI: 1})
	s.SetEntry(1, 1, &PathEntry{Apply: []nf.NF{acl}, Out: Forward{Kind: Egress}})
	out, fwd, err := s.ProcessFrameInPlace(ingressFrame(t, 80), &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Kind != Dropped || out != nil {
		t.Errorf("fwd = %v with a %d-byte frame, want a drop and no frame", fwd.Kind, len(out))
	}
}

func TestSwitchReturnPathAdvanceAndDecap(t *testing.T) {
	s := mkSwitch(t)
	fwdNF, _ := nf.New("IPv4Fwd", "fwd0", nil)
	// Returning packets at (5, 3): apply Fwd, advance SI by 3, decap, egress.
	s.SetEntry(5, 3, &PathEntry{
		Apply: []nf.NF{fwdNF}, Decap: true,
		Out: Forward{Kind: Egress},
	})
	enc, err := nsh.Encap(ingressFrame(t, 443), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, fwd, err := s.ProcessFrameInPlace(enc, &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Kind != Egress {
		t.Fatalf("fwd = %+v", fwd)
	}
	if _, _, err := nsh.Tag(out); !errors.Is(err, nsh.ErrNotEncapped) {
		t.Error("NSH not stripped on egress")
	}
	var p packet.Packet
	if err := p.Decode(out); err != nil || !p.HasUDP {
		t.Fatalf("egress frame damaged: %v", err)
	}
}

func TestSwitchAdvanceSI(t *testing.T) {
	s := mkSwitch(t)
	s.SetEntry(9, 8, &PathEntry{AdvanceSI: 3, Out: Forward{Kind: ToServer, Target: "srv"}})
	enc, _ := nsh.Encap(ingressFrame(t, 1), 9, 8)
	out, _, err := s.ProcessFrameInPlace(enc, &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	_, si, _ := nsh.Tag(out)
	if si != 5 {
		t.Errorf("si = %d, want 5", si)
	}
}

func TestSwitchBranchReTag(t *testing.T) {
	s := mkSwitch(t)
	s.SetEntry(2, 4, &PathEntry{
		Branches: []Branch{
			{Filter: bpf.MustCompile("udp.dport == 53"), SPI: 21, SI: 9},
			{Filter: nil, SPI: 22, SI: 9}, // default branch
		},
		Out: Forward{Kind: ToServer, Target: "srv"},
	})
	enc, _ := nsh.Encap(ingressFrame(t, 53), 2, 4)
	out, _, err := s.ProcessFrameInPlace(enc, &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	spi, si, _ := nsh.Tag(out)
	if spi != 21 || si != 9 {
		t.Errorf("branch tag = %d/%d, want 21/9", spi, si)
	}
	enc2, _ := nsh.Encap(ingressFrame(t, 80), 2, 4)
	out2, _, _ := s.ProcessFrameInPlace(enc2, &nf.Env{})
	spi2, _, _ := nsh.Tag(out2)
	if spi2 != 22 {
		t.Errorf("default branch tag = %d, want 22", spi2)
	}
}

func TestSwitchNoPath(t *testing.T) {
	s := mkSwitch(t)
	_, fwd, err := s.ProcessFrameInPlace(ingressFrame(t, 80), &nf.Env{})
	if !errors.Is(err, errNoPath) || fwd.Kind != Dropped {
		t.Errorf("err = %v fwd = %v", err, fwd)
	}
	// Tagged frame with no entry.
	s.AddClassifierRule(ClassifierRule{SPI: 1, SI: 1})
	enc, _ := nsh.Encap(ingressFrame(t, 80), 99, 9)
	if _, _, err := s.ProcessFrameInPlace(enc, &nf.Env{}); !errors.Is(err, errNoPath) {
		t.Errorf("tagged miss: %v", err)
	}
}

// TestRemoveSPIRangeClearsEntries: after RemoveSPIRange, Entry finds no
// removed (SPI, SI) point and every other one still, at the SI extremes
// and at SPIs up to NSH's 24 bits, and the counts it returns are the
// points it removed.
func TestRemoveSPIRangeClearsEntries(t *testing.T) {
	s := NewSwitch()
	spis := []uint32{0, 1, 9, 10, 15, 20, 21, 255, 256, 1 << 16, 1<<24 - 1}
	sis := []uint8{0, 1, 127, 128, 255}
	for _, spi := range spis {
		for _, si := range sis {
			s.SetEntry(spi, si, &PathEntry{Out: Forward{Kind: Egress}})
		}
		s.AddClassifierRule(ClassifierRule{SPI: spi, SI: 255})
	}
	inRange := func(spi uint32) bool { return spi >= 10 && spi <= 256 }
	removed := 0
	for _, spi := range spis {
		if inRange(spi) {
			removed++
		}
	}
	entries, rules := s.RemoveSPIRange(10, 256)
	if entries != removed*len(sis) || rules != removed {
		t.Fatalf("removed %d entries and %d rules, want %d and %d", entries, rules, removed*len(sis), removed)
	}
	if got, want := s.EntryCount(), (len(spis)-removed)*len(sis); got != want {
		t.Fatalf("EntryCount = %d, want %d", got, want)
	}
	for _, spi := range spis {
		for _, si := range sis {
			if e := s.Entry(spi, si); (e == nil) != inRange(spi) {
				t.Fatalf("Entry(%d, %d) = %v after removing SPIs 10..256", spi, si, e)
			}
		}
	}
}
