package p4

// Library holds the standalone P4 NF sources for every NF with a PISA
// implementation (Table 3's P4 column), written in Lemur's extended-P4
// dialect and parsed at init. Each program has as many tables as the
// registry's PISAProfile entry for its class (TestLibraryMatchesRegistry
// enforces this); the per-table memory figures are the registry's alone.
var Library = map[string]*Program{}

var librarySources = map[string]string{
	"ACL": `
nf acl {
  headers { ethernet, ipv4, tcp, udp }
  parser {
    ethernet select ethertype { 0x0800 -> ipv4 }
    ipv4 select proto { 6 -> tcp  17 -> udp  default -> accept }
    tcp { -> accept }
    udp { -> accept }
  }
  table acl_tbl {
    keys { ipv4.src, ipv4.dst }
    actions { permit, deny }
    size 1024
  }
  control { acl_tbl }
}`,
	"NAT": `
nf nat {
  headers { ethernet, ipv4, tcp, udp }
  parser {
    ethernet select ethertype { 0x0800 -> ipv4 }
    ipv4 select proto { 6 -> tcp  17 -> udp  default -> accept }
    tcp { -> accept }
    udp { -> accept }
  }
  table nat_tbl {
    keys { ipv4.src, tcp.sport }
    actions { rewrite_src, rewrite_dst, drop }
    size 12000
  }
  control { nat_tbl }
}`,
	"LB": `
nf lb {
  headers { ethernet, ipv4, tcp, udp }
  parser {
    ethernet select ethertype { 0x0800 -> ipv4 }
    ipv4 select proto { 6 -> tcp  17 -> udp  default -> accept }
    tcp { -> accept }
    udp { -> accept }
  }
  table lb_tbl {
    keys { ipv4.src, ipv4.dst, tcp.sport, tcp.dport }
    actions { set_backend }
    size 2048
  }
  control { lb_tbl }
}`,
	"Match": `
nf match {
  headers { ethernet, ipv4, tcp, udp }
  parser {
    ethernet select ethertype { 0x0800 -> ipv4 }
    ipv4 select proto { 6 -> tcp  17 -> udp  default -> accept }
    tcp { -> accept }
    udp { -> accept }
  }
  table match_tbl {
    keys { ipv4.src, ipv4.dst, ipv4.proto }
    actions { set_class, drop }
    size 512
  }
  control { match_tbl }
}`,
	"Tunnel": `
nf tunnel {
  headers { ethernet, vlan, ipv4 }
  parser {
    ethernet select ethertype { 0x8100 -> vlan  0x0800 -> ipv4 }
    vlan select ethertype { 0x0800 -> ipv4 }
    ipv4 { -> accept }
  }
  table tunnel_tbl {
    keys { ethernet.ethertype }
    actions { push_vlan }
    size 16
  }
  control { tunnel_tbl }
}`,
	"Detunnel": `
nf detunnel {
  headers { ethernet, vlan, ipv4 }
  parser {
    ethernet select ethertype { 0x8100 -> vlan  0x0800 -> ipv4 }
    vlan select ethertype { 0x0800 -> ipv4 }
    ipv4 { -> accept }
  }
  table detunnel_tbl {
    keys { vlan.vid }
    actions { pop_vlan }
    size 16
  }
  control { detunnel_tbl }
}`,
	"IPv4Fwd": `
nf ipv4fwd {
  headers { ethernet, ipv4 }
  parser {
    ethernet select ethertype { 0x0800 -> ipv4 }
    ipv4 { -> accept }
  }
  table fwd_tbl {
    keys { ipv4.dst }
    actions { set_egress, drop }
    size 4096
  }
  control { fwd_tbl }
}`,
}

func init() {
	for class, src := range librarySources {
		Library[class] = mustParseProgram(src)
	}
}

// LibrarySource returns the hand-written extended-P4 source for an NF class
// ("" if it has none). The meta-compiler's LoC accounting uses it to split
// human-authored from auto-generated code (§5.3).
func LibrarySource(class string) string { return librarySources[class] }
