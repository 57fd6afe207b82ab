// Package nfspec implements Lemur's NF chain specification language (§2): a
// BESS-inspired dataflow language in which operators declare NF instances,
// wire them into DAGs with arrows (optionally with branch filters and
// traffic-split weights), and attach a traffic aggregate and an SLO to each
// chain. The language is declarative: it never says where an NF runs.
//
// Example:
//
//	let RULES = 1024
//
//	chain enterprise {
//	  aggregate { src = 10.0.0.0/8  dst = 172.16.0.0/12 }
//	  slo { tmin = 2.4Gbps  tmax = 100Gbps  dmax = 45us }
//	  acl0  = ACL(rules = RULES)
//	  enc0  = Encrypt()
//	  fwd0  = IPv4Fwd()
//	  acl0 -> enc0 -> fwd0
//	}
//
// Branching uses bracketed edge attributes, mirroring the paper's
// conditional-execution syntax:
//
//	bpf0 -> [filter = "vlan.vid == 1", weight = 0.5] enc0
package nfspec

import (
	"fmt"
	"strconv"
	"strings"

	"lemur/internal/nf"
)

// SLO is the per-chain service level objective (§2, Table 1).
type SLO struct {
	TMinBps float64 // minimum guaranteed rate; 0 = best effort
	TMaxBps float64 // burst cap; +Inf = unlimited
	DMaxSec float64 // max mean chain delay; 0 = unconstrained
	// DMaxP99Sec bounds the chain's 99th-percentile delay (spelled
	// dmax_p99 in spec text); 0 = unconstrained. When both bounds are
	// set, the tail bound must be at least the mean bound.
	DMaxP99Sec float64
}

// Aggregate describes the traffic this chain applies to.
type Aggregate struct {
	SrcCIDR string
	DstCIDR string
	Proto   uint8  // 0 = any
	DstPort uint16 // 0 = any
}

// Instance is one declared NF instance.
type Instance struct {
	Name   string
	Class  string
	Params nf.Params
}

// Edge is one dataflow edge. Weight is the traffic fraction taking this
// edge out of its source (0 = split evenly with siblings); Filter is an
// optional bpf expression selecting the traffic.
type Edge struct {
	From, To string
	Weight   float64
	Filter   string
}

// Chain is one parsed NF chain.
type Chain struct {
	Name      string
	SLO       SLO
	Aggregate Aggregate
	NFs       []Instance
	Edges     []Edge
}

// instance returns the named instance, or nil.
func (c *Chain) instance(name string) *Instance {
	for i := range c.NFs {
		if c.NFs[i].Name == name {
			return &c.NFs[i]
		}
	}
	return nil
}

// Parse parses a spec file possibly containing multiple chains and macro
// (let) definitions.
func Parse(src string) ([]*Chain, error) {
	p := &parser{lx: newLexer(src, 1), macros: map[string]value{}}
	var chains []*Chain
	for p.peek().kind != tEOF {
		c, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		if c == nil {
			continue
		}
		for _, prev := range chains {
			if prev.Name == c.Name {
				return nil, fmt.Errorf("nfspec: duplicate chain %q", c.Name)
			}
		}
		chains = append(chains, c)
	}
	if len(chains) == 0 {
		return nil, fmt.Errorf("nfspec: no chains defined")
	}
	return chains, nil
}

// Block is one top-level definition of a spec document: a let or a chain,
// from its keyword through its last token.
type Block struct {
	Let  bool   // a let definition; otherwise a chain
	Text string // the definition's text, a substring of the document
	Line int    // the document line the keyword is on
}

// Blocks appends the top-level blocks of src to dst in document order. A
// let or chain keyword starts a block only outside braces, brackets and
// parentheses, and strings and comments are skipped as the lexer skips
// them; lexing allocates nothing. ok is false when src does not split that
// way (a token before the first keyword, an unterminated string, unbalanced
// brackets); Parse then reports what is wrong with it.
func Blocks(dst []Block, src string) (blocks []Block, ok bool) {
	l := lexer{src: src, line: 1}
	depth, start, end := 0, -1, 0
	for l.scan(); l.tok.kind != tEOF; l.scan() {
		t := l.tok
		if t.kind == tPunct {
			switch t.text {
			case "{", "[", "(":
				depth++
			case "}", "]", ")":
				if depth--; depth < 0 {
					return dst, false
				}
			case "\x00unterminated":
				return dst, false
			}
		}
		if t.kind == tIdent && depth == 0 && (t.text == "let" || t.text == "chain") {
			if start >= 0 {
				dst[len(dst)-1].Text = src[start:end]
			}
			start = t.pos
			dst = append(dst, Block{Let: t.text == "let", Line: t.line})
		} else if start < 0 {
			return dst, false
		}
		end = l.pos
	}
	if start >= 0 {
		dst[len(dst)-1].Text = src[start:end]
	}
	return dst, depth == 0
}

// Macros is the environment the let blocks of a document define, for
// parsing the document one block at a time. The zero value is empty.
type Macros struct{ defs map[string]value }

// ParseBlock parses one block of a document (see Blocks) against the let
// blocks before it, which must have gone through m in document order. A let
// extends m and yields a nil chain. The block must hold exactly one
// definition; error text and line numbers are Parse's for the same tokens.
func (m *Macros) ParseBlock(b Block) (*Chain, error) {
	if m.defs == nil {
		m.defs = map[string]value{}
	}
	p := &parser{lx: newLexer(b.Text, b.Line), macros: m.defs}
	c, err := p.parseBlock()
	if err == nil && p.peek().kind != tEOF {
		err = p.topLevelError()
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// value is a parsed literal: float64, string, bool, or []string.
type value any

// ---- lexer ----

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber // raw numeric text incl. units, parsed later
	tString
	tPunct // one of  = ( ) { } [ ] , ->
)

type token struct {
	kind tokKind
	text string
	line int
	pos  int // byte offset in the lexer's source
}

// lexer produces tokens on demand: tok is the lookahead, the token the
// parser takes next, and scan replaces it with the one after. Token texts
// are substrings of the source, so only an unrecognised byte allocates.
type lexer struct {
	src  string
	pos  int
	line int
	tok  token
}

// newLexer starts lexing src, whose first byte is on document line line.
func newLexer(src string, line int) lexer {
	l := lexer{src: src, line: line}
	l.scan()
	return l
}

func (l *lexer) emit(k tokKind, text string, pos int) {
	l.tok = token{kind: k, text: text, line: l.line, pos: pos}
}

// scan lexes the next token into tok; past the end of the source it is
// tEOF.
func (l *lexer) scan() {
	s := l.src
	for l.pos < len(s) {
		c, start := s[l.pos], l.pos
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(s) && s[l.pos] != '\n' {
				l.pos++
			}
		case c == '-' && l.pos+1 < len(s) && s[l.pos+1] == '>':
			l.pos += 2
			l.emit(tPunct, s[start:l.pos], start)
			return
		case strings.IndexByte("=(){}[],", c) >= 0:
			l.pos++
			l.emit(tPunct, s[start:l.pos], start)
			return
		case c == '"' || c == '\'':
			quote := c
			j := l.pos + 1
			for j < len(s) && s[j] != quote {
				if s[j] == '\n' {
					l.line++
				}
				j++
			}
			if j >= len(s) {
				l.pos = len(s)
				l.emit(tPunct, "\x00unterminated", start)
				return
			}
			l.pos = j + 1
			l.emit(tString, s[start+1:j], start)
			return
		case c >= '0' && c <= '9' || (c == '.' || c == '-') && l.pos+1 < len(s) && s[l.pos+1] >= '0' && s[l.pos+1] <= '9':
			j := l.pos + 1 // the sign (or first digit/dot) is consumed
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.' ||
				s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' || s[j] == '/') {
				j++
			}
			l.pos = j
			l.emit(tNumber, s[start:j], start)
			return
		case isIdentByte(c):
			j := l.pos
			for j < len(s) && (isIdentByte(s[j]) || s[j] >= '0' && s[j] <= '9' || s[j] == '.') {
				j++
			}
			l.pos = j
			l.emit(tIdent, s[start:j], start)
			return
		default:
			l.pos++
			l.emit(tPunct, "\x00bad:"+string(c), start)
			return
		}
	}
	l.emit(tEOF, "", l.pos)
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// ---- parser ----

type parser struct {
	lx     lexer
	macros map[string]value
}

func (p *parser) peek() token { return p.lx.tok }
func (p *parser) next() token { t := p.lx.tok; p.lx.scan(); return t }

// parseBlock parses the let or chain definition at the parser's position;
// a let yields a nil chain.
func (p *parser) parseBlock() (*Chain, error) {
	switch t := p.peek(); {
	case t.kind == tIdent && t.text == "let":
		return nil, p.parseLet()
	case t.kind == tIdent && t.text == "chain":
		return p.parseChain()
	}
	return nil, p.topLevelError()
}

// topLevelError rejects a token where a definition must start.
func (p *parser) topLevelError() error {
	t := p.peek()
	return fmt.Errorf("nfspec: line %d: expected 'chain' or 'let', got %q", t.line, t.text)
}

func (p *parser) expectPunct(text string) error {
	t := p.next()
	if t.kind != tPunct || t.text != text {
		return fmt.Errorf("nfspec: line %d: expected %q, got %q", t.line, text, t.text)
	}
	return nil
}

func (p *parser) parseLet() error {
	p.next() // let
	name := p.next()
	if name.kind != tIdent {
		return fmt.Errorf("nfspec: line %d: bad macro name %q", name.line, name.text)
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	v, err := p.parseValue()
	if err != nil {
		return err
	}
	p.macros[name.text] = v
	return nil
}

// parseValue parses a literal: number (with optional rate/time unit),
// string, bool, identifier (macro reference), or [list, of, strings].
func (p *parser) parseValue() (value, error) {
	t := p.next()
	switch t.kind {
	case tString:
		return t.text, nil
	case tNumber:
		return parseNumber(t)
	case tIdent:
		switch t.text {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
		if v, ok := p.macros[t.text]; ok {
			return v, nil
		}
		return nil, fmt.Errorf("nfspec: line %d: unknown macro %q", t.line, t.text)
	case tPunct:
		if t.text == "[" {
			var list []string
			for p.peek().text != "]" {
				e := p.next()
				if e.kind == tPunct && e.text == "," {
					continue
				}
				if e.kind != tString && e.kind != tIdent && e.kind != tNumber {
					return nil, fmt.Errorf("nfspec: line %d: bad list element %q", e.line, e.text)
				}
				list = append(list, e.text)
			}
			p.next() // ]
			return list, nil
		}
	}
	return nil, fmt.Errorf("nfspec: line %d: expected a value, got %q", t.line, t.text)
}

// parseNumber handles plain numbers plus rate (bps/Kbps/Mbps/Gbps) and time
// (s/ms/us/ns) suffixes, returning float64 in base units.
func parseNumber(t token) (value, error) {
	text := t.text
	i := 0
	if i < len(text) && text[i] == '-' {
		i++
	}
	for i < len(text) && (text[i] >= '0' && text[i] <= '9' || text[i] == '.') {
		i++
	}
	numPart, unit := text[:i], text[i:]
	v, err := strconv.ParseFloat(numPart, 64)
	if err != nil {
		return nil, fmt.Errorf("nfspec: line %d: bad number %q", t.line, text)
	}
	switch strings.ToLower(unit) {
	case "":
		return v, nil
	case "bps":
		return v, nil
	case "kbps", "k":
		return v * 1e3, nil
	case "mbps", "m":
		return v * 1e6, nil
	case "gbps", "g":
		return v * 1e9, nil
	case "s":
		return v, nil
	case "ms":
		return v * 1e-3, nil
	case "us":
		return v * 1e-6, nil
	case "ns":
		return v * 1e-9, nil
	default:
		return nil, fmt.Errorf("nfspec: line %d: unknown unit %q", t.line, unit)
	}
}

func (p *parser) parseChain() (*Chain, error) {
	p.next() // chain
	name := p.next()
	if name.kind != tIdent {
		return nil, fmt.Errorf("nfspec: line %d: bad chain name %q", name.line, name.text)
	}
	c := &Chain{Name: name.text, SLO: SLO{TMaxBps: 1e308}}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tPunct && t.text == "}":
			p.next()
			return c, p.validate(c)
		case t.kind == tEOF:
			return nil, fmt.Errorf("nfspec: unterminated chain %q", c.Name)
		case t.kind == tIdent && t.text == "slo":
			if err := p.parseSLO(c); err != nil {
				return nil, err
			}
		case t.kind == tIdent && t.text == "aggregate":
			if err := p.parseAggregate(c); err != nil {
				return nil, err
			}
		case t.kind == tIdent:
			if err := p.parseStatement(c); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("nfspec: line %d: unexpected %q in chain %q", t.line, t.text, c.Name)
		}
	}
}

func (p *parser) parseSLO(c *Chain) error {
	p.next() // slo
	kv, err := p.parseKVBlock()
	if err != nil {
		return err
	}
	for k, v := range kv {
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("nfspec: chain %s: slo %s must be numeric", c.Name, k)
		}
		switch k {
		case "tmin":
			c.SLO.TMinBps = f
		case "tmax":
			c.SLO.TMaxBps = f
		case "dmax":
			c.SLO.DMaxSec = f
		case "dmax_p99":
			c.SLO.DMaxP99Sec = f
		default:
			return fmt.Errorf("nfspec: chain %s: unknown slo field %q", c.Name, k)
		}
	}
	return nil
}

func (p *parser) parseAggregate(c *Chain) error {
	p.next() // aggregate
	kv, err := p.parseKVBlock()
	if err != nil {
		return err
	}
	for k, v := range kv {
		switch k {
		case "src":
			c.Aggregate.SrcCIDR, _ = v.(string)
		case "dst":
			c.Aggregate.DstCIDR, _ = v.(string)
		case "proto":
			if f, ok := v.(float64); ok {
				c.Aggregate.Proto = uint8(f)
			}
		case "dport":
			if f, ok := v.(float64); ok {
				c.Aggregate.DstPort = uint16(f)
			}
		default:
			return fmt.Errorf("nfspec: chain %s: unknown aggregate field %q", c.Name, k)
		}
	}
	return nil
}

// parseKVBlock parses { k = v  k = v ... }. CIDR-looking numbers stay
// strings.
func (p *parser) parseKVBlock() (map[string]value, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	out := map[string]value{}
	for p.peek().text != "}" {
		k := p.next()
		if k.kind == tPunct && k.text == "," {
			continue
		}
		if k.kind != tIdent {
			return nil, fmt.Errorf("nfspec: line %d: bad key %q", k.line, k.text)
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		if t := p.peek(); t.kind == tNumber && strings.Contains(t.text, "/") {
			p.next()
			out[k.text] = t.text // CIDR literal
			continue
		}
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		out[k.text] = v
	}
	p.next() // }
	return out, nil
}

// parseStatement handles either an instance declaration
// (name = Class(args)) or an arrow chain (a -> b -> [attrs] c -> d).
func (p *parser) parseStatement(c *Chain) error {
	first := p.next() // ident
	if p.peek().kind == tPunct && p.peek().text == "=" {
		p.next() // =
		class := p.next()
		if class.kind != tIdent {
			return fmt.Errorf("nfspec: line %d: bad NF class %q", class.line, class.text)
		}
		params := nf.Params{}
		if p.peek().text == "(" {
			p.next()
			for p.peek().text != ")" {
				k := p.next()
				if k.kind == tPunct && k.text == "," {
					continue
				}
				if k.kind != tIdent {
					return fmt.Errorf("nfspec: line %d: bad parameter name %q", k.line, k.text)
				}
				if err := p.expectPunct("="); err != nil {
					return err
				}
				v, err := p.parseValue()
				if err != nil {
					return err
				}
				if f, ok := v.(float64); ok && f == float64(int(f)) {
					params[k.text] = int(f)
				} else {
					params[k.text] = v
				}
			}
			p.next() // )
		}
		if c.instance(first.text) != nil {
			return fmt.Errorf("nfspec: chain %s: duplicate instance %q", c.Name, first.text)
		}
		c.NFs = append(c.NFs, Instance{Name: first.text, Class: class.text, Params: params})
		return nil
	}

	// Arrow chain.
	from := first.text
	for p.peek().kind == tPunct && p.peek().text == "->" {
		p.next() // ->
		edge := Edge{From: from}
		if p.peek().text == "[" {
			attrs, err := p.parseEdgeAttrs()
			if err != nil {
				return err
			}
			if w, ok := attrs["weight"].(float64); ok {
				edge.Weight = w
			}
			if f, ok := attrs["filter"].(string); ok {
				edge.Filter = f
			}
		}
		to := p.next()
		if to.kind != tIdent {
			return fmt.Errorf("nfspec: line %d: expected NF name after ->, got %q", to.line, to.text)
		}
		edge.To = to.text
		c.Edges = append(c.Edges, edge)
		from = to.text
	}
	if from == first.text {
		return fmt.Errorf("nfspec: line %d: dangling statement %q", first.line, first.text)
	}
	return nil
}

func (p *parser) parseEdgeAttrs() (map[string]value, error) {
	p.next() // [
	out := map[string]value{}
	for p.peek().text != "]" {
		k := p.next()
		if k.kind == tPunct && k.text == "," {
			continue
		}
		if k.kind != tIdent {
			return nil, fmt.Errorf("nfspec: line %d: bad edge attribute %q", k.line, k.text)
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		out[k.text] = v
	}
	p.next() // ]
	return out, nil
}

// validate checks the chain references and NF classes.
func (p *parser) validate(c *Chain) error {
	if len(c.NFs) == 0 {
		return fmt.Errorf("nfspec: chain %s declares no NFs", c.Name)
	}
	for _, inst := range c.NFs {
		if _, ok := nf.Registry[inst.Class]; !ok {
			return fmt.Errorf("nfspec: chain %s: unknown NF class %q (instance %s)",
				c.Name, inst.Class, inst.Name)
		}
	}
	for _, e := range c.Edges {
		if c.instance(e.From) == nil {
			return fmt.Errorf("nfspec: chain %s: edge from undeclared %q", c.Name, e.From)
		}
		if c.instance(e.To) == nil {
			return fmt.Errorf("nfspec: chain %s: edge to undeclared %q", c.Name, e.To)
		}
		if e.Weight < 0 || e.Weight > 1 {
			return fmt.Errorf("nfspec: chain %s: edge %s->%s weight %v out of [0,1]",
				c.Name, e.From, e.To, e.Weight)
		}
	}
	if len(c.Edges) == 0 && len(c.NFs) > 1 {
		return fmt.Errorf("nfspec: chain %s: multiple NFs but no edges", c.Name)
	}
	if c.SLO.TMaxBps < c.SLO.TMinBps {
		return fmt.Errorf("nfspec: chain %s: tmax %v < tmin %v", c.Name, c.SLO.TMaxBps, c.SLO.TMinBps)
	}
	if c.SLO.DMaxSec < 0 {
		return fmt.Errorf("nfspec: chain %s: dmax %v is negative", c.Name, c.SLO.DMaxSec)
	}
	if c.SLO.DMaxP99Sec < 0 {
		return fmt.Errorf("nfspec: chain %s: dmax_p99 %v is negative", c.Name, c.SLO.DMaxP99Sec)
	}
	// Zero means unset for both delay bounds; only when both are present
	// can they contradict (a tail bound tighter than the mean bound).
	if c.SLO.DMaxP99Sec > 0 && c.SLO.DMaxSec > 0 && c.SLO.DMaxP99Sec < c.SLO.DMaxSec {
		return fmt.Errorf("nfspec: chain %s: dmax_p99 %v < dmax %v (p99 bound below the mean bound)",
			c.Name, c.SLO.DMaxP99Sec, c.SLO.DMaxSec)
	}
	return nil
}
