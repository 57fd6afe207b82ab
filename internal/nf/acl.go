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
//
// The list is the allow_dst rule, then the synthetic /24 allows, then the
// match-all. The synthetic rules are held as their count: all of them allow,
// so the first match among them is any match, and one arithmetic test
// (inSynthetic) answers for the whole range.
type ACL struct {
	base
	head      []Rule // rules before the synthetic range
	synthetic int    // synthetic allows 10.0.0.0/8 | i<<8 (/24), i < synthetic
	tail      []Rule // rules after it
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
	if cidr != "" {
		addr, bits, err := bpf.ParseCIDR(cidr)
		if err != nil {
			return nil, fmt.Errorf("nf: ACL %s: %w", name, err)
		}
		a.head = []Rule{{DstAddr: addr, DstMask: bpf.MaskBits(bits)}}
	}
	// Synthetic disjoint /24 allow rules under 10.0.0.0/8, mirroring how the
	// paper profiles ACL cost as a function of table size.
	a.synthetic = max(n, 0)
	if params.Str("default", "deny") == "allow" {
		a.tail = []Rule{{}} // match-all allow
	}
	return a, nil
}

// NumRules returns the table size (drives the cycle-cost model).
func (a *ACL) NumRules() int { return len(a.head) + a.synthetic + len(a.tail) }

// inSynthetic reports whether a synthetic rule matches destination dst.
// Rule i is 10<<24 | uint32(i)<<8 under a /24 mask, so it covers the top
// byte 10|(i>>16 & 0xff) and the middle 16 bits i & 0xffff; indices from
// 2^24 on shift out of the word and repeat earlier rules. The smallest index
// covering dst is therefore (top&^10)<<16 | mid, below 2^24, and some rule
// below the count covers dst iff that one does.
func (a *ACL) inSynthetic(dst uint32) bool {
	top, mid := dst>>24, dst>>8&0xffff
	return top&10 == 10 && int((top&^10)<<16|mid) < a.synthetic
}

// Process applies first-match semantics with default deny.
func (a *ACL) Process(p *packet.Packet, _ *Env) {
	if r := firstMatch(a.head, p); r != nil {
		p.Drop = r.Drop
	} else if p.HasIPv4 && a.inSynthetic(p.IP.Dst.Uint32()) {
		p.Drop = false
	} else if r := firstMatch(a.tail, p); r != nil {
		p.Drop = r.Drop
	} else {
		p.Drop = true
	}
}

// firstMatch returns the first of rules that p hits, or nil.
func firstMatch(rules []Rule, p *packet.Packet) *Rule {
	for i := range rules {
		if rules[i].Matches(p) {
			return &rules[i]
		}
	}
	return nil
}
