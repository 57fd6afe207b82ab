// Package nf implements Lemur's network function library: the fourteen NFs
// of the paper's Table 3, each as a real packet-processing implementation,
// plus the registry describing where each NF may run (server, PISA switch,
// SmartNIC, OpenFlow switch), its profiled cycle cost, its PISA table
// footprint, and whether it can be replicated across cores.
package nf

import (
	"fmt"
	"math/rand"

	"lemur/internal/packet"
)

// Env is the per-invocation execution environment handed to NFs. Time is
// simulated seconds (token buckets, flow timeouts). Rand is a seeded source
// for randomized NF behaviour; no NF reads it today, so Verify and the
// simulator leave it nil. The field stays because the benchmark's replica
// harness (bench/replica.go) sets it.
type Env struct {
	NowSec float64
	Rand   *rand.Rand
}

// NF processes packets on the software dataplane. Process may mutate the
// packet (headers via the struct views plus SyncHeaders, metadata directly)
// and signals a drop via p.Drop.
type NF interface {
	// Name is the instance name from the chain spec (e.g. "ACL0").
	Name() string
	// Class is the NF class name as in Table 3 (e.g. "ACL").
	Class() string
	// Process applies the NF to one packet.
	Process(p *packet.Packet, env *Env)
}

// Params carries NF constructor arguments parsed from the chain spec, e.g.
// ACL(rules=1024).
type Params map[string]any

// int fetches an integer parameter with a default. Spec literals may arrive
// as int or float64.
func (p Params) int(key string, def int) int {
	v, ok := p[key]
	if !ok {
		return def
	}
	switch n := v.(type) {
	case int:
		return n
	case float64:
		return int(n)
	}
	return def
}

// float fetches a float parameter with a default.
func (p Params) float(key string, def float64) float64 {
	v, ok := p[key]
	if !ok {
		return def
	}
	switch n := v.(type) {
	case float64:
		return n
	case int:
		return float64(n)
	}
	return def
}

// str fetches a string parameter with a default.
func (p Params) str(key, def string) string {
	if v, ok := p[key].(string); ok {
		return v
	}
	return def
}

// strSlice fetches a string-list parameter.
func (p Params) strSlice(key string) []string {
	switch v := p[key].(type) {
	case []string:
		return v
	case []any:
		out := make([]string, 0, len(v))
		for _, e := range v {
			if s, ok := e.(string); ok {
				out = append(out, s)
			}
		}
		return out
	}
	return nil
}

// base supplies Name/Class plumbing for NF implementations.
type base struct {
	name, class string
}

func (b base) Name() string  { return b.name }
func (b base) Class() string { return b.class }

// New instantiates an NF of the given class with instance name and params.
func New(class, name string, params Params) (NF, error) {
	m, ok := Registry[class]
	if !ok {
		return nil, fmt.Errorf("nf: unknown class %q", class)
	}
	return m.New(name, params)
}
