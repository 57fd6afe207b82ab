// Package core orchestrates the full Lemur workflow (Figure 1): parse NF
// chain specifications, run the Placer, invoke the meta-compiler, and stand
// up the cross-platform deployment on the simulated testbed. The public
// lemur package is a thin veneer over this orchestrator.
package core

import (
	"errors"
	"fmt"

	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
	"lemur/internal/profile"
	"lemur/internal/runtime"
)

// System is one Lemur instance: a topology plus loaded chain specs and the
// state of the place/compile/deploy pipeline.
type System struct {
	Topo     *hw.Topology
	DB       *profile.DB
	Restrict map[string][]hw.Platform
	Scheme   placer.Scheme
	Seed     int64
	// Parallel is the placer's candidate-evaluation worker count (<=1 =
	// serial; results are identical at any value).
	Parallel int
	// Headroom is the per-server worker-core reserve withheld from the
	// placer's spare-core pour so later admissions have budget
	// (placer.Input.HeadroomCores). 0 = the paper's offline placement.
	Headroom int
	// SimWorkers is the worker-shard count threaded into every simulation
	// run (runtime.SimConfig.Workers). Results are byte-identical at any
	// value; 0 or 1 keeps runs serial.
	SimWorkers int

	chains []*nfspec.Chain
	graphs []*nfgraph.Graph

	result     *placer.Result
	deployment *metacompiler.Deployment
}

// NewSystem builds a system on the given topology with Lemur's heuristic
// placement and registry-derived profiles.
func NewSystem(topo *hw.Topology) *System {
	return &System{
		Topo:   topo,
		DB:     profile.DefaultDB(),
		Scheme: placer.SchemeLemur,
		Seed:   1,
	}
}

// Workflow errors.
var (
	ErrNoChains  = errors.New("core: no chains loaded")
	ErrNotPlaced = errors.New("core: Place has not produced a feasible placement")
)

// LoadSpec parses chain specification text and appends its chains. It may
// be called multiple times.
func (s *System) LoadSpec(src string) error {
	chains, err := nfspec.Parse(src)
	if err != nil {
		return err
	}
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			return err
		}
		s.chains = append(s.chains, c)
		s.graphs = append(s.graphs, g)
	}
	s.result, s.deployment = nil, nil // invalidate downstream state
	return nil
}

// Subset returns a derived system sharing the topology, profiles, and
// configuration but holding only the chains keep accepts (by spec name, in
// load order). The derived pipeline state starts empty; graphs are shared by
// pointer with the parent, so a placement of the subset can later admit the
// excluded chains incrementally (placer.Reconfigure keys pinned state by pointer).
func (s *System) Subset(keep func(name string) bool) *System {
	d := NewSystem(s.Topo)
	d.DB, d.Restrict, d.Scheme, d.Seed, d.Parallel, d.Headroom, d.SimWorkers =
		s.DB, s.Restrict, s.Scheme, s.Seed, s.Parallel, s.Headroom, s.SimWorkers
	for i, c := range s.chains {
		if keep(c.Name) {
			d.chains = append(d.chains, c)
			d.graphs = append(d.graphs, s.graphs[i])
		}
	}
	return d
}

// Chains returns the loaded chain specs.
func (s *System) Chains() []*nfspec.Chain { return s.chains }

// Graphs returns the built chain graphs.
func (s *System) Graphs() []*nfgraph.Graph { return s.graphs }

// Input assembles the placer input for the current state.
func (s *System) Input() (*placer.Input, error) {
	if len(s.graphs) == 0 {
		return nil, ErrNoChains
	}
	return &placer.Input{
		Chains:        s.graphs,
		Topo:          s.Topo,
		DB:            s.DB,
		Restrict:      s.Restrict,
		Parallel:      s.Parallel,
		HeadroomCores: s.Headroom,
	}, nil
}

// Place runs the configured placement scheme. The result is retained for
// Compile/Deploy and also returned (infeasible results carry a Reason).
func (s *System) Place() (*placer.Result, error) {
	in, err := s.Input()
	if err != nil {
		return nil, err
	}
	res, err := placer.Place(s.Scheme, in)
	if err != nil {
		return nil, err
	}
	s.result = res
	s.deployment = nil
	return res, nil
}

// Result returns the last placement, or nil.
func (s *System) Result() *placer.Result { return s.result }

// Compile runs the meta-compiler on the last feasible placement.
func (s *System) Compile() (*metacompiler.Deployment, error) {
	if s.result == nil {
		if _, err := s.Place(); err != nil {
			return nil, err
		}
	}
	if !s.result.Feasible {
		return nil, fmt.Errorf("%w: %s", ErrNotPlaced, s.result.Reason)
	}
	in, err := s.Input()
	if err != nil {
		return nil, err
	}
	d, err := metacompiler.Compile(in, s.result)
	if err != nil {
		return nil, err
	}
	s.deployment = d
	return d, nil
}

// Deploy compiles (if needed) and returns a live testbed.
func (s *System) Deploy() (*runtime.Testbed, error) {
	if s.deployment == nil {
		if _, err := s.Compile(); err != nil {
			return nil, err
		}
	}
	return runtime.New(s.deployment, s.Seed), nil
}
