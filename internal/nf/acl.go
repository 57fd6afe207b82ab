package nf

import (
	"fmt"

	"lemur/internal/bpf"
	"lemur/internal/packet"
)

// Rule is one ACL entry: prefix matches on src/dst plus optional exact port
// and protocol matches. A zero mask field matches anything.
type Rule struct {
	SrcAddr, SrcMask uint32
	DstAddr, DstMask uint32
	SrcPort, DstPort uint16 // 0 = wildcard
	Proto            uint8  // 0 = wildcard
	Drop             bool
}

// Matches reports whether the packet hits this rule.
func (r *Rule) Matches(p *packet.Packet) bool {
	if !p.HasIPv4 {
		return false
	}
	if p.IP.Src.Uint32()&r.SrcMask != r.SrcAddr&r.SrcMask {
		return false
	}
	if p.IP.Dst.Uint32()&r.DstMask != r.DstAddr&r.DstMask {
		return false
	}
	if r.Proto != 0 && p.IP.Protocol != r.Proto {
		return false
	}
	if r.SrcPort != 0 || r.DstPort != 0 {
		var sp, dp uint16
		switch {
		case p.HasTCP:
			sp, dp = p.TCP.SrcPort, p.TCP.DstPort
		case p.HasUDP:
			sp, dp = p.UDP.SrcPort, p.UDP.DstPort
		default:
			return false
		}
		if r.SrcPort != 0 && sp != r.SrcPort {
			return false
		}
		if r.DstPort != 0 && dp != r.DstPort {
			return false
		}
	}
	return true
}

// ACL filters packets against an ordered rule list; the first matching rule
// decides, and packets matching no rule are dropped (default-deny), per the
// paper's §2 example where only 10.0.0.0/8 traffic passes.
type ACL struct {
	base
	rules []Rule
}

// defaultRuleCount matches the paper's Table 4 profile point.
const defaultRuleCount = 1024

// NewACL builds an ACL. Params:
//
//	rules      int    — generate this many synthetic allow rules (profiling)
//	allow_dst  string — CIDR; a single rule permitting traffic to that prefix
//	default    string — "allow" flips the default action to permit
func NewACL(name string, params Params) (NF, error) {
	a := &ACL{base: base{name: name, class: "ACL"}}
	cidr := params.Str("allow_dst", "")
	n := params.Int("rules", 0)
	if n == 0 && cidr == "" {
		n = defaultRuleCount
	}
	// Sized once: the allow_dst rule, the n synthetic ones, the match-all.
	a.rules = make([]Rule, 0, max(n, 0)+2)
	if cidr != "" {
		addr, bits, err := bpf.ParseCIDR(cidr)
		if err != nil {
			return nil, fmt.Errorf("nf: ACL %s: %w", name, err)
		}
		a.rules = append(a.rules, Rule{DstAddr: addr, DstMask: bpf.MaskBits(bits)})
	}
	for i := 0; i < n; i++ {
		// Synthetic disjoint /24 allow rules under 10.0.0.0/8, mirroring
		// how the paper profiles ACL cost as a function of table size.
		addr := uint32(10)<<24 | uint32(i)<<8
		a.rules = append(a.rules, Rule{DstAddr: addr, DstMask: bpf.MaskBits(24)})
	}
	if params.Str("default", "deny") == "allow" {
		a.rules = append(a.rules, Rule{}) // match-all allow
	}
	return a, nil
}

// AddRule appends a rule.
func (a *ACL) AddRule(r Rule) { a.rules = append(a.rules, r) }

// NumRules returns the table size (drives the cycle-cost model).
func (a *ACL) NumRules() int { return len(a.rules) }

// Process applies first-match semantics with default deny.
func (a *ACL) Process(p *packet.Packet, _ *Env) {
	for i := range a.rules {
		if a.rules[i].Matches(p) {
			p.Drop = a.rules[i].Drop
			return
		}
	}
	p.Drop = true
}
