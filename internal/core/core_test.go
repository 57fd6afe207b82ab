package core

import (
	"errors"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
)

var evalRestrict = map[string][]hw.Platform{"IPv4Fwd": {hw.PISA}}

const spec = `
chain web {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8  dst = 172.16.0.0/12 }
  acl0 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}`

func newSys(t *testing.T, opts ...hw.TestbedOption) *System {
	t.Helper()
	s := NewSystem(hw.NewPaperTestbed(opts...))
	s.Restrict = evalRestrict
	return s
}

func TestWorkflow(t *testing.T) {
	s := newSys(t)
	if _, err := s.Place(); !errors.Is(err, ErrNoChains) {
		t.Errorf("Place with no chains: %v", err)
	}
	if err := s.LoadSpec(spec); err != nil {
		t.Fatal(err)
	}
	if len(s.Chains()) != 1 || len(s.Graphs()) != 1 {
		t.Fatalf("chains=%d graphs=%d", len(s.Chains()), len(s.Graphs()))
	}
	res, err := s.Place()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %s", res.Reason)
	}
	if s.Result() != res {
		t.Error("Result() does not return the cached placement")
	}
	d, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if d.Artifacts == nil {
		t.Error("no artifacts")
	}
	tb, err := s.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Verify(20); err != nil {
		t.Fatal(err)
	}
	// Loading another spec invalidates the pipeline state.
	if err := s.LoadSpec(strings.Replace(spec, "chain web", "chain web2", 1)); err != nil {
		t.Fatal(err)
	}
	if s.Result() != nil {
		t.Error("LoadSpec did not invalidate the placement")
	}
}

func TestCompileWithoutFeasiblePlacement(t *testing.T) {
	s := newSys(t)
	if err := s.LoadSpec(strings.Replace(spec, "tmin = 2Gbps", "tmin = 90Gbps", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(); !errors.Is(err, ErrNotPlaced) {
		t.Errorf("Compile on infeasible: %v", err)
	}
}

func TestDeployImplicitlyPlaces(t *testing.T) {
	s := newSys(t)
	if err := s.LoadSpec(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(); err != nil {
		t.Fatalf("Deploy without explicit Place: %v", err)
	}
}

func TestMILPSchemeViaSystem(t *testing.T) {
	s := newSys(t)
	s.Scheme = placer.SchemeMILP
	if err := s.LoadSpec(spec); err != nil {
		t.Fatal(err)
	}
	res, err := s.Place()
	if err != nil || !res.Feasible {
		t.Fatalf("MILP via system: %v %s", err, res.Reason)
	}
}
