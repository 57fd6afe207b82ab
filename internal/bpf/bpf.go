// Package bpf implements a small BPF-style match expression language used for
// the Match NF, branch predicates in chain specifications, and traffic-class
// definitions.
//
// Expressions compare packet fields against constants and combine with
// boolean operators, e.g.:
//
//	ip.dst in 10.0.0.0/8 && (tcp.dport == 443 || tcp.dport == 80)
//	vlan.vid == 7 && !(ip.proto == 17)
//
// A compiled Filter evaluates against *packet.Packet without allocating.
package bpf

import (
	"fmt"
	"strconv"
	"strings"

	"lemur/internal/packet"
)

// field identifies a packet field usable in expressions.
type field int

// Supported match fields.
const (
	fieldIPSrc field = iota
	fieldIPDst
	fieldIPProto
	fieldIPTOS
	fieldSrcPort // TCP or UDP source port
	fieldDstPort // TCP or UDP destination port
	fieldVLANVID
)

var fieldNames = map[string]field{
	"ip.src":    fieldIPSrc,
	"ip.dst":    fieldIPDst,
	"ip.proto":  fieldIPProto,
	"ip.tos":    fieldIPTOS,
	"port.src":  fieldSrcPort,
	"port.dst":  fieldDstPort,
	"tcp.sport": fieldSrcPort,
	"tcp.dport": fieldDstPort,
	"udp.sport": fieldSrcPort,
	"udp.dport": fieldDstPort,
	"vlan.vid":  fieldVLANVID,
}

// op is a comparison operator.
type op int

// Comparison operators.
const (
	opEq op = iota
	opNe
	opLt
	opLe
	opGt
	opGe
	opIn // CIDR membership, IP fields only
)

// node is one compiled expression node.
type node struct {
	kind  nodeKind
	field field
	op    op
	val   uint32
	mask  uint32 // for opIn: network mask
	kids  []node
}

type nodeKind int

const (
	kindCmp nodeKind = iota
	kindAnd
	kindOr
	kindNot
	kindConst // val != 0 means true
)

// Filter is a compiled match expression.
type Filter struct {
	root node
	src  string
}

// String returns the source expression.
func (f *Filter) String() string { return f.src }

// Compile parses and compiles a match expression.
func Compile(expr string) (*Filter, error) {
	p := &parser{toks: lex(expr)}
	root, err := p.parseOr()
	if err != nil {
		return nil, fmt.Errorf("bpf: %q: %w", expr, err)
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("bpf: %q: trailing input at %q", expr, p.peek().text)
	}
	return &Filter{root: root, src: expr}, nil
}

// MustCompile is Compile, panicking on error; for static expressions.
func MustCompile(expr string) *Filter {
	f, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return f
}

// Match evaluates the filter against a decoded packet.
func (f *Filter) Match(p *packet.Packet) bool {
	return evalNode(&f.root, p)
}

func evalNode(n *node, p *packet.Packet) bool {
	switch n.kind {
	case kindConst:
		return n.val != 0
	case kindNot:
		return !evalNode(&n.kids[0], p)
	case kindAnd:
		for i := range n.kids {
			if !evalNode(&n.kids[i], p) {
				return false
			}
		}
		return true
	case kindOr:
		for i := range n.kids {
			if evalNode(&n.kids[i], p) {
				return true
			}
		}
		return false
	case kindCmp:
		v, ok := fieldValue(n.field, p)
		if !ok {
			return false
		}
		switch n.op {
		case opEq:
			return v == n.val
		case opNe:
			return v != n.val
		case opLt:
			return v < n.val
		case opLe:
			return v <= n.val
		case opGt:
			return v > n.val
		case opGe:
			return v >= n.val
		case opIn:
			return v&n.mask == n.val&n.mask
		}
	}
	return false
}

func fieldValue(f field, p *packet.Packet) (uint32, bool) {
	switch f {
	case fieldIPSrc:
		if !p.HasIPv4 {
			return 0, false
		}
		return p.IP.Src.Uint32(), true
	case fieldIPDst:
		if !p.HasIPv4 {
			return 0, false
		}
		return p.IP.Dst.Uint32(), true
	case fieldIPProto:
		if !p.HasIPv4 {
			return 0, false
		}
		return uint32(p.IP.Protocol), true
	case fieldIPTOS:
		if !p.HasIPv4 {
			return 0, false
		}
		return uint32(p.IP.TOS), true
	case fieldSrcPort:
		switch {
		case p.HasTCP:
			return uint32(p.TCP.SrcPort), true
		case p.HasUDP:
			return uint32(p.UDP.SrcPort), true
		}
		return 0, false
	case fieldDstPort:
		switch {
		case p.HasTCP:
			return uint32(p.TCP.DstPort), true
		case p.HasUDP:
			return uint32(p.UDP.DstPort), true
		}
		return 0, false
	case fieldVLANVID:
		if !p.HasVLAN {
			return 0, false
		}
		return uint32(p.VLAN.VID), true
	}
	return 0, false
}

// ---- lexer ----

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokIP
	tokCIDR
	tokOp     // == != < <= > >=
	tokAnd    // &&
	tokOr     // ||
	tokNot    // !
	tokLParen // (
	tokRParen // )
	tokErr
)

type token struct {
	kind tokKind
	text string
}

func lex(s string) []token {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "("})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")"})
			i++
		case c == '&':
			if i+1 < len(s) && s[i+1] == '&' {
				toks = append(toks, token{tokAnd, "&&"})
				i += 2
			} else {
				toks = append(toks, token{tokErr, s[i:]})
				i = len(s)
			}
		case c == '|':
			if i+1 < len(s) && s[i+1] == '|' {
				toks = append(toks, token{tokOr, "||"})
				i += 2
			} else {
				toks = append(toks, token{tokErr, s[i:]})
				i = len(s)
			}
		case c == '!':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, token{tokOp, "!="})
				i += 2
			} else {
				toks = append(toks, token{tokNot, "!"})
				i++
			}
		case c == '=' || c == '<' || c == '>':
			op := string(c)
			i++
			if i < len(s) && s[i] == '=' {
				op += "="
				i++
			}
			if op == "=" {
				toks = append(toks, token{tokErr, "="})
			} else {
				toks = append(toks, token{tokOp, op})
			}
		case c >= '0' && c <= '9':
			j := i
			dots, slash := 0, false
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.' || s[j] == '/') {
				if s[j] == '.' {
					dots++
				}
				if s[j] == '/' {
					slash = true
				}
				j++
			}
			text := s[i:j]
			switch {
			case slash:
				toks = append(toks, token{tokCIDR, text})
			case dots == 3:
				toks = append(toks, token{tokIP, text})
			case dots == 0:
				toks = append(toks, token{tokNumber, text})
			default:
				toks = append(toks, token{tokErr, text})
			}
			i = j
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
			j := i
			for j < len(s) && (s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' ||
				s[j] >= '0' && s[j] <= '9' || s[j] == '.' || s[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, s[i:j]})
			i = j
		default:
			toks = append(toks, token{tokErr, string(c)})
			i++
		}
	}
	toks = append(toks, token{tokEOF, ""})
	return toks
}

// ---- parser ----

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return node{}, err
	}
	kids := []node{left}
	for p.peek().kind == tokOr {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return node{}, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return node{kind: kindOr, kids: kids}, nil
}

func (p *parser) parseAnd() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return node{}, err
	}
	kids := []node{left}
	for p.peek().kind == tokAnd {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return node{}, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return node{kind: kindAnd, kids: kids}, nil
}

func (p *parser) parseUnary() (node, error) {
	switch t := p.peek(); t.kind {
	case tokNot:
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return node{}, err
		}
		return node{kind: kindNot, kids: []node{inner}}, nil
	case tokLParen:
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return node{}, err
		}
		if p.peek().kind != tokRParen {
			return node{}, fmt.Errorf("missing ')' at %q", p.peek().text)
		}
		p.next()
		return inner, nil
	case tokIdent:
		if t.text == "true" || t.text == "false" {
			p.next()
			v := uint32(0)
			if t.text == "true" {
				v = 1
			}
			return node{kind: kindConst, val: v}, nil
		}
		return p.parseCmp()
	default:
		return node{}, fmt.Errorf("unexpected token %q", t.text)
	}
}

func (p *parser) parseCmp() (node, error) {
	ft := p.next()
	field, ok := fieldNames[ft.text]
	if !ok {
		return node{}, fmt.Errorf("unknown field %q", ft.text)
	}
	opt := p.next()
	var op op
	switch {
	case opt.kind == tokOp:
		switch opt.text {
		case "==":
			op = opEq
		case "!=":
			op = opNe
		case "<":
			op = opLt
		case "<=":
			op = opLe
		case ">":
			op = opGt
		case ">=":
			op = opGe
		}
	case opt.kind == tokIdent && opt.text == "in":
		op = opIn
	default:
		return node{}, fmt.Errorf("expected operator after field, got %q", opt.text)
	}

	vt := p.next()
	n := node{kind: kindCmp, field: field, op: op}
	switch {
	case op == opIn:
		if vt.kind != tokCIDR {
			return node{}, fmt.Errorf("'in' requires a CIDR, got %q", vt.text)
		}
		if field != fieldIPSrc && field != fieldIPDst {
			return node{}, fmt.Errorf("'in' only applies to IP fields")
		}
		addr, bits, err := ParseCIDR(vt.text)
		if err != nil {
			return node{}, err
		}
		n.val = addr
		n.mask = maskBits(bits)
	case vt.kind == tokIP:
		addr, err := parseIPv4(vt.text)
		if err != nil {
			return node{}, err
		}
		n.val = addr
	case vt.kind == tokNumber:
		v, err := strconv.ParseUint(vt.text, 10, 32)
		if err != nil {
			return node{}, fmt.Errorf("bad number %q", vt.text)
		}
		n.val = uint32(v)
	default:
		return node{}, fmt.Errorf("expected value, got %q", vt.text)
	}
	return n, nil
}

// ParseCIDR parses "a.b.c.d/n" into a host-order address and prefix length.
func ParseCIDR(s string) (addr uint32, bits int, err error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("bad CIDR %q", s)
	}
	addr, err = parseIPv4(s[:slash])
	if err != nil {
		return 0, 0, err
	}
	bits, err = strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return 0, 0, fmt.Errorf("bad prefix length in %q", s)
	}
	return addr, bits, nil
}

func parseIPv4(s string) (uint32, error) {
	var a packet.IPv4Addr
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("bad IPv4 %q", s)
	}
	for i, part := range parts {
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("bad IPv4 %q", s)
		}
		a[i] = byte(v)
	}
	return a.Uint32(), nil
}

func maskBits(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - bits)
}

// MaskBits exposes prefix-length→mask conversion for other packages (ACL,
// OpenFlow rules).
func MaskBits(bits int) uint32 { return maskBits(bits) }
