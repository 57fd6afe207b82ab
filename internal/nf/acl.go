package nf

import (
	"fmt"

	"lemur/internal/bpf"
	"lemur/internal/packet"
)

// rule is one ACL entry: prefix matches on src/dst plus optional exact port
// and protocol matches. A zero mask field matches anything.
type rule struct {
	SrcAddr, SrcMask uint32
	DstAddr, DstMask uint32
	SrcPort, DstPort uint16 // 0 = wildcard
	Proto            uint8  // 0 = wildcard
	Drop             bool
}

// matches reports whether the packet hits this rule.
func (r *rule) matches(p *packet.Packet) bool {
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

// acl filters packets against an ordered rule list; the first matching rule
// decides, and packets matching no rule are dropped (default-deny), per the
// paper's §2 example where only 10.0.0.0/8 traffic passes.
//
// The list is the allow_dst rule, then the synthetic /24 allows, then the
// match-all. The synthetic rules are held as their count: all of them allow,
// so the first match among them is any match, and one arithmetic test
// (inSynthetic) answers for the whole range.
type acl struct {
	base
	head      []rule // rules before the synthetic range
	synthetic int    // synthetic allows 10.0.0.0/8 | i<<8 (/24), i < synthetic
	tail      []rule // rules after it
}

// defaultRuleCount matches the paper's Table 4 profile point.
const defaultRuleCount = 1024

// newACL builds an ACL. Params:
//
//	rules      int    — generate this many synthetic allow rules (profiling)
//	allow_dst  string — CIDR; a single rule permitting traffic to that prefix
//	default    string — "allow" flips the default action to permit
func newACL(name string, params Params) (NF, error) {
	a := &acl{base: base{name: name, class: "ACL"}}
	cidr := params.str("allow_dst", "")
	n := params.int("rules", 0)
	if n == 0 && cidr == "" {
		n = defaultRuleCount
	}
	if cidr != "" {
		addr, bits, err := bpf.ParseCIDR(cidr)
		if err != nil {
			return nil, fmt.Errorf("nf: ACL %s: %w", name, err)
		}
		a.head = []rule{{DstAddr: addr, DstMask: bpf.MaskBits(bits)}}
	}
	// Synthetic disjoint /24 allow rules under 10.0.0.0/8, mirroring how the
	// paper profiles ACL cost as a function of table size.
	a.synthetic = max(n, 0)
	if params.str("default", "deny") == "allow" {
		a.tail = []rule{{}} // match-all allow
	}
	return a, nil
}

// inSynthetic reports whether a synthetic rule matches destination dst.
// rule i is 10<<24 | uint32(i)<<8 under a /24 mask, so it covers the top
// byte 10|(i>>16 & 0xff) and the middle 16 bits i & 0xffff; indices from
// 2^24 on shift out of the word and repeat earlier rules. The smallest index
// covering dst is therefore (top&^10)<<16 | mid, below 2^24, and some rule
// below the count covers dst iff that one does.
func (a *acl) inSynthetic(dst uint32) bool {
	top, mid := dst>>24, dst>>8&0xffff
	return top&10 == 10 && int((top&^10)<<16|mid) < a.synthetic
}

// Process applies first-match semantics with default deny.
func (a *acl) Process(p *packet.Packet, _ *Env) {
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
func firstMatch(rules []rule, p *packet.Packet) *rule {
	for i := range rules {
		if rules[i].matches(p) {
			return &rules[i]
		}
	}
	return nil
}
