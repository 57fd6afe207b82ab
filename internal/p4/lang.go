package p4

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// parseProgram parses Lemur's minimally-extended P4 dialect for standalone
// NFs. The grammar (whitespace-insensitive, comments start with '#'):
//
//	nf <name> {
//	  headers { ethernet, ipv4, tcp }
//	  parser {
//	    ethernet select ethertype { 0x8100 -> vlan  0x0800 -> ipv4 }
//	    ipv4 select proto { 6 -> tcp  default -> accept }
//	    tcp { -> accept }
//	  }
//	  table <tname> {
//	    keys { ipv4.src, ipv4.dst }
//	    actions { permit, deny }
//	    size 1024
//	  }
//	  control { <tname>, ... }
//	}
//
// Parse states are named by the header they extract; the start state is
// ethernet.
func parseProgram(src string) (*Program, error) {
	lx := &lexer{src: src}
	toks, err := lx.run()
	if err != nil {
		return nil, err
	}
	pp := &progParser{toks: toks}
	prog, err := pp.parse()
	if err != nil {
		return nil, err
	}
	if err := prog.validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// mustParseProgram panics on parse failure (for built-in library sources).
func mustParseProgram(src string) *Program {
	p, err := parseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) run() ([]string, error) {
	var toks []string
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case unicode.IsSpace(rune(c)) || c == ',':
			l.pos++
		case c == '{' || c == '}':
			toks = append(toks, string(c))
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
			toks = append(toks, "->")
			l.pos += 2
		case isWordByte(c):
			j := l.pos
			for j < len(l.src) && isWordByte(l.src[j]) {
				j++
			}
			toks = append(toks, l.src[l.pos:j])
			l.pos = j
		default:
			return nil, fmt.Errorf("p4: unexpected character %q at offset %d", c, l.pos)
		}
	}
	return toks, nil
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '.' || c == 'x'
}

type progParser struct {
	toks []string
	pos  int
}

func (p *progParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *progParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *progParser) expect(want string) error {
	if got := p.next(); got != want {
		return fmt.Errorf("p4: expected %q, got %q (token %d)", want, got, p.pos-1)
	}
	return nil
}

func (p *progParser) parse() (*Program, error) {
	if err := p.expect("nf"); err != nil {
		return nil, err
	}
	prog := &Program{Name: p.next(), Parser: NewGraph()}
	if prog.Name == "" || prog.Name == "{" {
		return nil, fmt.Errorf("p4: missing nf name")
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	for p.peek() != "}" && p.peek() != "" {
		switch kw := p.next(); kw {
		case "headers":
			list, err := p.braceList()
			if err != nil {
				return nil, err
			}
			prog.Headers = list
		case "parser":
			if err := p.parseParser(prog); err != nil {
				return nil, err
			}
		case "table":
			if err := p.parseTable(prog); err != nil {
				return nil, err
			}
		case "control":
			list, err := p.braceList()
			if err != nil {
				return nil, err
			}
			prog.Control = list
		default:
			return nil, fmt.Errorf("p4: unknown section %q", kw)
		}
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *progParser) braceList() ([]string, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []string
	for p.peek() != "}" {
		t := p.next()
		if t == "" {
			return nil, fmt.Errorf("p4: unterminated list")
		}
		out = append(out, t)
	}
	p.next() // consume }
	return out, nil
}

func (p *progParser) parseParser(prog *Program) error {
	if err := p.expect("{"); err != nil {
		return err
	}
	for p.peek() != "}" {
		header := p.next()
		if header == "" {
			return fmt.Errorf("p4: unterminated parser block")
		}
		st := &State{Header: header}
		if p.peek() == "select" {
			p.next()
			st.SelectField = p.next()
		}
		if err := p.expect("{"); err != nil {
			return err
		}
		for p.peek() != "}" {
			var value string
			if p.peek() != "->" {
				value = p.next()
			} else {
				value = "default"
			}
			if err := p.expect("->"); err != nil {
				return err
			}
			st.Transitions = append(st.Transitions, Transition{Value: value, Next: p.next()})
		}
		p.next() // }
		prog.Parser.States[header] = st
	}
	p.next() // }
	return nil
}

func (p *progParser) parseTable(prog *Program) error {
	t := Table{Name: p.next(), Size: 1024}
	if err := p.expect("{"); err != nil {
		return err
	}
	for p.peek() != "}" {
		switch kw := p.next(); kw {
		case "keys":
			list, err := p.braceList()
			if err != nil {
				return err
			}
			t.Keys = list
		case "actions":
			list, err := p.braceList()
			if err != nil {
				return err
			}
			t.Actions = list
		case "size":
			v, err := strconv.Atoi(p.next())
			if err != nil {
				return fmt.Errorf("p4: table %s: bad size: %w", t.Name, err)
			}
			t.Size = v
		default:
			return fmt.Errorf("p4: table %s: unknown attribute %q", t.Name, kw)
		}
	}
	p.next() // }
	if strings.TrimSpace(t.Name) == "" {
		return fmt.Errorf("p4: table without a name")
	}
	prog.Tables = append(prog.Tables, t)
	return nil
}
