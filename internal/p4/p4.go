// Package p4 models standalone P4 NFs the way Lemur's meta-compiler consumes
// them (§4.2, §A.2): each NF declares the headers it uses (drawn from a
// shared header library), an NF-local parse graph, and its match/action
// tables. The package provides the minimally-extended-P4 text format parser
// and the parser-merging algorithm (§A.2.1) that unifies NF-local parse
// graphs into one switch parser, rejecting co-placements with conflicting
// transitions.
package p4

import (
	"errors"
	"fmt"
	"sort"
)

// Field is one header field.
type Field struct {
	Name string
	Bits int
}

// Header is a packet header layout.
type Header struct {
	Name   string
	Fields []Field
}

// Bits returns the total header width.
func (h *Header) Bits() int {
	n := 0
	for _, f := range h.Fields {
		n += f.Bits
	}
	return n
}

// HeaderLibrary is the predefined (extensible) set of headers NF developers
// draw from, so independently-written NFs agree on layouts (§4.2).
var HeaderLibrary = map[string]*Header{
	"ethernet": {Name: "ethernet", Fields: []Field{
		{"dst", 48}, {"src", 48}, {"ethertype", 16}}},
	"vlan": {Name: "vlan", Fields: []Field{
		{"pcp", 3}, {"dei", 1}, {"vid", 12}, {"ethertype", 16}}},
	"nsh": {Name: "nsh", Fields: []Field{
		{"flags", 16}, {"mdtype", 8}, {"nextproto", 8}, {"spi", 24}, {"si", 8}}},
	"ipv4": {Name: "ipv4", Fields: []Field{
		{"version", 4}, {"ihl", 4}, {"tos", 8}, {"len", 16}, {"id", 16},
		{"frag", 16}, {"ttl", 8}, {"proto", 8}, {"csum", 16},
		{"src", 32}, {"dst", 32}}},
	"tcp": {Name: "tcp", Fields: []Field{
		{"sport", 16}, {"dport", 16}, {"seq", 32}, {"ack", 32},
		{"off", 4}, {"rsvd", 4}, {"flags", 8}, {"win", 16}, {"csum", 16}, {"urg", 16}}},
	"udp": {Name: "udp", Fields: []Field{
		{"sport", 16}, {"dport", 16}, {"len", 16}, {"csum", 16}}},
}

// Accept is the terminal parse state.
const Accept = "accept"

// Transition is one edge of a parse graph: if the select field equals Value,
// parse Next next. Value "default" is the fallthrough.
type Transition struct {
	Value string
	Next  string
}

// State is one parse state, keyed by the header it extracts.
type State struct {
	Header      string
	SelectField string // e.g. "ethertype"; empty means unconditional default
	Transitions []Transition
}

// Graph is an NF-local (or unified) parse graph rooted at Start.
type Graph struct {
	Start  string
	States map[string]*State
}

// NewGraph returns an empty graph rooted at ethernet.
func NewGraph() *Graph {
	return &Graph{Start: "ethernet", States: make(map[string]*State)}
}

// ErrParserConflict signals that two NFs' parse graphs disagree and cannot be
// co-placed on the switch (§A.2.1).
var ErrParserConflict = errors.New("p4: conflicting parser transitions")

// Merge unifies other into g: at every parse state it takes the union of
// next-header choices, integrating unseen transitions and states. A
// transition whose (state, select value) exists in both graphs but leads to
// different headers is a conflict.
func (g *Graph) Merge(other *Graph) error {
	if g.Start != other.Start {
		return fmt.Errorf("%w: roots %q vs %q", ErrParserConflict, g.Start, other.Start)
	}
	for name, ost := range other.States {
		st, ok := g.States[name]
		if !ok {
			cp := &State{Header: ost.Header, SelectField: ost.SelectField}
			cp.Transitions = append(cp.Transitions, ost.Transitions...)
			g.States[name] = cp
			continue
		}
		if st.Header != ost.Header {
			return fmt.Errorf("%w: state %q extracts %q vs %q",
				ErrParserConflict, name, st.Header, ost.Header)
		}
		if st.SelectField != "" && ost.SelectField != "" && st.SelectField != ost.SelectField {
			return fmt.Errorf("%w: state %q selects on %q vs %q",
				ErrParserConflict, name, st.SelectField, ost.SelectField)
		}
		if st.SelectField == "" {
			st.SelectField = ost.SelectField
		}
		for _, tr := range ost.Transitions {
			found := false
			for _, have := range st.Transitions {
				if have.Value == tr.Value {
					if have.Next != tr.Next {
						return fmt.Errorf("%w: state %q value %q -> %q vs %q",
							ErrParserConflict, name, tr.Value, have.Next, tr.Next)
					}
					found = true
					break
				}
			}
			if !found {
				st.Transitions = append(st.Transitions, tr)
			}
		}
	}
	return nil
}

// Headers returns the sorted set of headers reachable in the graph.
func (g *Graph) Headers() []string {
	set := map[string]bool{}
	for name, st := range g.States {
		set[name] = true
		_ = st
	}
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Table is one match/action table of a standalone NF.
type Table struct {
	Name    string
	Keys    []string // "header.field" match keys
	Actions []string
	Size    int // entries
	SRAM    int // memory blocks
	TCAM    int
}

// Program is a standalone P4 NF: headers, NF-local parser, tables, and the
// control order in which its tables apply.
type Program struct {
	Name    string
	Headers []string
	Parser  *Graph
	Tables  []Table
	Control []string // table names in application order
}

// Validate checks internal consistency: headers exist in the library, parser
// states reference declared headers, control references declared tables.
func (p *Program) Validate() error {
	declared := map[string]bool{}
	for _, h := range p.Headers {
		if _, ok := HeaderLibrary[h]; !ok {
			return fmt.Errorf("p4: %s: unknown header %q (extend HeaderLibrary)", p.Name, h)
		}
		declared[h] = true
	}
	if p.Parser != nil {
		for name, st := range p.Parser.States {
			if !declared[st.Header] {
				return fmt.Errorf("p4: %s: parser state %q extracts undeclared header %q",
					p.Name, name, st.Header)
			}
			for _, tr := range st.Transitions {
				if tr.Next != Accept {
					if _, ok := p.Parser.States[tr.Next]; !ok {
						return fmt.Errorf("p4: %s: state %q transitions to missing state %q",
							p.Name, name, tr.Next)
					}
				}
			}
		}
	}
	tables := map[string]bool{}
	for _, t := range p.Tables {
		if tables[t.Name] {
			return fmt.Errorf("p4: %s: duplicate table %q", p.Name, t.Name)
		}
		tables[t.Name] = true
	}
	for _, c := range p.Control {
		if !tables[c] {
			return fmt.Errorf("p4: %s: control applies unknown table %q", p.Name, c)
		}
	}
	return nil
}
