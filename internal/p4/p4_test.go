package p4

import (
	"errors"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nf"
)

func TestParseProgram(t *testing.T) {
	prog, err := parseProgram(`
# a comment
nf demo {
  headers { ethernet, ipv4, tcp }
  parser {
    ethernet select ethertype { 0x0800 -> ipv4 }
    ipv4 select proto { 6 -> tcp  default -> accept }
    tcp { -> accept }
  }
  table t1 {
    keys { ipv4.src }
    actions { a, b }
    size 100
  }
  control { t1 }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "demo" || len(prog.Headers) != 3 {
		t.Errorf("prog = %+v", prog)
	}
	if len(prog.Tables) != 1 || prog.Tables[0].Size != 100 {
		t.Errorf("table = %+v", prog.Tables[0])
	}
	st := prog.Parser.States["ipv4"]
	if st == nil || st.SelectField != "proto" || len(st.Transitions) != 2 {
		t.Fatalf("ipv4 state = %+v", st)
	}
	if st.Transitions[1].Value != "default" || st.Transitions[1].Next != accept {
		t.Errorf("default transition = %+v", st.Transitions[1])
	}
}

func TestParseProgramErrors(t *testing.T) {
	bad := []string{
		"",
		"nf {",
		"nf x { headers { nosuchheader } }",
		"nf x { bogussection { } }",
		"nf x { headers { ipv4 } parser { ethernet { -> accept } } }",      // undeclared header in parser
		"nf x { headers { ethernet } control { ghost } }",                  // unknown table in control
		"nf x { headers { ethernet } table t { size abc } }",               // bad number
		"nf x { headers { ethernet } table t { wat 1 } }",                  // unknown attr
		"nf x { headers { ethernet } table t { sram 1 } }",                 // memory figures are the registry's
		"nf x { headers { ethernet } parser { ethernet { -> missing } } }", // dangling transition
		"nf x { headers { ethernet } table t { } table t { } }",            // duplicate table
		"nf x @",
	}
	for _, src := range bad {
		if _, err := parseProgram(src); err == nil {
			t.Errorf("parseProgram(%.40q) succeeded, want error", src)
		}
	}
}

func TestLibraryMatchesRegistry(t *testing.T) {
	// Every NF with a PISA implementation in the registry must have a P4
	// source in the library, with as many tables as its profile.
	for _, class := range nf.Classes() {
		meta := nf.Registry[class]
		hasP4 := meta.SupportsPlatform(hw.PISA)
		prog, inLib := Library[class]
		if hasP4 != inLib {
			t.Errorf("%s: PISA support %v but library presence %v", class, hasP4, inLib)
			continue
		}
		if !hasP4 {
			continue
		}
		if err := prog.validate(); err != nil {
			t.Errorf("%s: invalid library program: %v", class, err)
		}
		if tables := len(prog.Tables); tables != meta.PISA.Tables {
			t.Errorf("%s: library tables=%d, registry profile %+v", class, tables, *meta.PISA)
		}
	}
}

func TestMergeUnion(t *testing.T) {
	g := NewGraph()
	if err := g.Merge(Library["ACL"].Parser); err != nil {
		t.Fatal(err)
	}
	if err := g.Merge(Library["Tunnel"].Parser); err != nil {
		t.Fatal(err)
	}
	eth := g.States["ethernet"]
	if eth == nil {
		t.Fatal("no ethernet state")
	}
	// Union: ACL contributes 0x0800->ipv4, Tunnel adds 0x8100->vlan.
	vals := map[string]string{}
	for _, tr := range eth.Transitions {
		vals[tr.Value] = tr.Next
	}
	if vals["0x0800"] != "ipv4" || vals["0x8100"] != "vlan" {
		t.Errorf("ethernet transitions = %v", vals)
	}
	// ipv4 state keeps ACL's proto select plus Tunnel's default accept.
	if g.States["ipv4"].SelectField != "proto" {
		t.Errorf("ipv4 select = %q", g.States["ipv4"].SelectField)
	}
	hs := g.Headers()
	if len(hs) < 5 {
		t.Errorf("merged headers = %v", hs)
	}
}

func TestMergeConflict(t *testing.T) {
	a := NewGraph()
	a.States["ethernet"] = &State{Header: "ethernet", SelectField: "ethertype",
		Transitions: []Transition{{Value: "0x1234", Next: "ipv4"}}}
	a.States["ipv4"] = &State{Header: "ipv4"}

	b := NewGraph()
	b.States["ethernet"] = &State{Header: "ethernet", SelectField: "ethertype",
		Transitions: []Transition{{Value: "0x1234", Next: "vlan"}}}
	b.States["vlan"] = &State{Header: "vlan"}

	if err := a.Merge(b); !errors.Is(err, ErrParserConflict) {
		t.Errorf("err = %v, want ErrParserConflict", err)
	}

	// Select-field disagreement is also a conflict.
	c := NewGraph()
	c.States["ethernet"] = &State{Header: "ethernet", SelectField: "src",
		Transitions: []Transition{{Value: "1", Next: accept}}}
	d := NewGraph()
	d.States["ethernet"] = &State{Header: "ethernet", SelectField: "ethertype"}
	if err := c.Merge(d); !errors.Is(err, ErrParserConflict) {
		t.Errorf("select conflict: err = %v", err)
	}
}

func TestMergeIdempotent(t *testing.T) {
	g := NewGraph()
	if err := g.Merge(Library["NAT"].Parser); err != nil {
		t.Fatal(err)
	}
	before := len(g.States["ethernet"].Transitions)
	if err := g.Merge(Library["NAT"].Parser); err != nil {
		t.Fatal(err)
	}
	if got := len(g.States["ethernet"].Transitions); got != before {
		t.Errorf("re-merge duplicated transitions: %d -> %d", before, got)
	}
}

func TestHeaderLibraryWidths(t *testing.T) {
	widths := map[string]int{
		"ethernet": 112, "vlan": 32, "nsh": 64, "ipv4": 160, "tcp": 160, "udp": 64,
	}
	for name, want := range widths {
		h, ok := HeaderLibrary[name]
		if !ok {
			t.Errorf("header %q missing", name)
			continue
		}
		got := 0
		for _, f := range h {
			got += f.Bits
		}
		if got != want {
			t.Errorf("%s width = %d bits, want %d", name, got, want)
		}
	}
}

func TestValidateCatchesBadControl(t *testing.T) {
	p := &Program{Name: "x", Headers: []string{"ethernet"}, Control: []string{"ghost"}}
	if err := p.validate(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("err = %v", err)
	}
}
