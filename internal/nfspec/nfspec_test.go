package nfspec

import (
	"math"
	"strings"
	"testing"
)

func TestParseLinearChain(t *testing.T) {
	chains, err := Parse(`
# enterprise border chain
chain enterprise {
  aggregate { src = 10.0.0.0/8  dst = 172.16.0.0/12  proto = 17  dport = 53 }
  slo { tmin = 2.4Gbps  tmax = 100Gbps  dmax = 45us }
  acl0 = ACL(rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 {
		t.Fatalf("chains = %d", len(chains))
	}
	c := chains[0]
	if c.Name != "enterprise" || len(c.NFs) != 3 || len(c.Edges) != 2 {
		t.Fatalf("chain = %+v", c)
	}
	if c.SLO.TMinBps != 2.4e9 || c.SLO.TMaxBps != 100e9 {
		t.Errorf("slo rates = %v/%v", c.SLO.TMinBps, c.SLO.TMaxBps)
	}
	if math.Abs(c.SLO.DMaxSec-45e-6) > 1e-12 {
		t.Errorf("dmax = %v", c.SLO.DMaxSec)
	}
	if c.Aggregate.SrcCIDR != "10.0.0.0/8" || c.Aggregate.Proto != 17 || c.Aggregate.DstPort != 53 {
		t.Errorf("aggregate = %+v", c.Aggregate)
	}
	if got := c.instance("acl0"); got == nil || got.Class != "ACL" || got.Params["rules"] != 1024 {
		t.Errorf("acl0 = %+v", got)
	}
	if c.Edges[0].From != "acl0" || c.Edges[0].To != "enc0" {
		t.Errorf("edge 0 = %+v", c.Edges[0])
	}
}

func TestParseBranchesAndMacros(t *testing.T) {
	chains, err := Parse(`
let RULES = 512
let BLOCKLIST = ["evil.test", "bad.example"]

chain branched {
  bpf0 = BPF(filter = "ip.proto == 17")
  url0 = UrlFilter(block = BLOCKLIST)
  acl0 = ACL(rules = RULES)
  fwd0 = IPv4Fwd()
  bpf0 -> [filter = "udp.dport == 53", weight = 0.25] acl0
  bpf0 -> [weight = 0.75] url0
  acl0 -> fwd0
  url0 -> fwd0
}`)
	if err != nil {
		t.Fatal(err)
	}
	c := chains[0]
	if len(c.Edges) != 4 {
		t.Fatalf("edges = %d", len(c.Edges))
	}
	if c.Edges[0].Filter != "udp.dport == 53" || c.Edges[0].Weight != 0.25 {
		t.Errorf("branch edge = %+v", c.Edges[0])
	}
	if c.Edges[1].Weight != 0.75 {
		t.Errorf("edge 1 = %+v", c.Edges[1])
	}
	if got := c.instance("acl0").Params["rules"]; got != 512 {
		t.Errorf("macro expansion: rules = %v", got)
	}
	if got, _ := c.instance("url0").Params["block"].([]string); len(got) != 2 || got[0] != "evil.test" {
		t.Errorf("list macro: %v", got)
	}
}

func TestParseMultipleChains(t *testing.T) {
	chains, err := Parse(`
chain a { x = ACL() }
chain b { y = NAT() }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 2 || chains[0].Name != "a" || chains[1].Name != "b" {
		t.Fatalf("chains = %+v", chains)
	}
	// SLO defaults: best effort, unbounded burst.
	if chains[0].SLO.TMinBps != 0 || chains[0].SLO.TMaxBps < 1e300 {
		t.Errorf("default slo = %+v", chains[0].SLO)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, frag string
	}{
		{"", "no chains"},
		{"chain x {", "unterminated"},
		{"chain x { }", "no NFs"},
		{"chain x { a = Quantum() }", "unknown NF class"},
		{"chain x { a = ACL() b = NAT() }", "no edges"},
		{"chain x { a = ACL() a = NAT() a -> a }", "duplicate instance"},
		{"chain x { a = ACL() a -> ghost }", "undeclared"},
		{"chain x { a = ACL() ghost -> a }", "undeclared"},
		{"chain x { slo { tmin = 5G tmax = 1G } a = ACL() }", "tmax"},
		{"chain x { slo { bogus = 1 } a = ACL() }", "unknown slo"},
		{"chain x { aggregate { bogus = 1 } a = ACL() }", "unknown aggregate"},
		{"chain x { a = ACL(rules = NOMACRO) }", "unknown macro"},
		{"chain x { a = ACL() a -> }", "expected NF name"},
		{"chain x { a = ACL() a }", "dangling"},
		{"chain x { slo { tmin = 5parsecs } a = ACL() }", "unknown unit"},
		{"chain a { x = ACL() } chain a { y = NAT() }", "duplicate chain"},
		{"blah", "expected 'chain'"},
		{`chain x { a = ACL() b = NAT() a -> [weight = 1.5] b }`, "out of [0,1]"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%.50q) succeeded, want error ~%q", tc.src, tc.frag)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("Parse(%.50q) err = %q, want mention of %q", tc.src, err, tc.frag)
		}
	}
}

func TestRateAndTimeUnits(t *testing.T) {
	chains, err := Parse(`
chain u {
  slo { tmin = 500Mbps  tmax = 2.5G  dmax = 30ms }
  a = ACL()
}`)
	if err != nil {
		t.Fatal(err)
	}
	s := chains[0].SLO
	if s.TMinBps != 5e8 || s.TMaxBps != 2.5e9 || math.Abs(s.DMaxSec-0.03) > 1e-12 {
		t.Errorf("slo = %+v", s)
	}
}

func TestStringQuotes(t *testing.T) {
	chains, err := Parse(`
chain q {
  m = Match(filter = 'ip.src in 10.0.0.0/8')
}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := chains[0].NFs[0].Params["filter"]; got != "ip.src in 10.0.0.0/8" {
		t.Errorf("filter = %q", got)
	}
}
