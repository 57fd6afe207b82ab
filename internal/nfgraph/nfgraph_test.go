package nfgraph

import (
	"errors"
	"math"
	"testing"

	"lemur/internal/nfspec"
)

func mustChain(t *testing.T, src string) *nfspec.Chain {
	t.Helper()
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return chains[0]
}

func TestBuildLinear(t *testing.T) {
	g, err := Build(mustChain(t, `
chain lin {
  a = ACL()
  b = Encrypt()
  c = IPv4Fwd()
  a -> b -> c
}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Root.Name() != "a" {
		t.Errorf("root = %s", g.Root.Name())
	}
	if len(g.Order) != 3 || g.Order[0].Name() != "a" || g.Order[2].Name() != "c" {
		t.Errorf("order = %v", names(g.Order))
	}
	for _, n := range g.Order {
		if math.Abs(n.Weight-1) > 1e-9 {
			t.Errorf("%s weight = %v", n.Name(), n.Weight)
		}
		if n.IsBranch() || n.IsMerge() {
			t.Errorf("%s misclassified", n.Name())
		}
	}
	paths := g.Paths()
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Errorf("paths = %+v", paths)
	}
}

func names(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Name()
	}
	return out
}

func TestBuildBranchMerge(t *testing.T) {
	g, err := Build(mustChain(t, `
chain bm {
  lb = LB()
  n1 = NAT()
  n2 = NAT()
  n3 = NAT()
  fw = IPv4Fwd()
  lb -> n1 -> fw
  lb -> n2 -> fw
  lb -> n3 -> fw
}`))
	if err != nil {
		t.Fatal(err)
	}
	lb, fw := g.Nodes["lb"], g.Nodes["fw"]
	if !lb.IsBranch() || lb.IsMerge() {
		t.Error("lb should branch")
	}
	if !fw.IsMerge() || fw.IsBranch() {
		t.Error("fw should merge")
	}
	// Even split: each NAT carries 1/3, fw carries 1 again.
	for _, nm := range []string{"n1", "n2", "n3"} {
		if w := g.Nodes[nm].Weight; math.Abs(w-1.0/3) > 1e-9 {
			t.Errorf("%s weight = %v, want 1/3", nm, w)
		}
	}
	if math.Abs(fw.Weight-1) > 1e-9 {
		t.Errorf("fw weight = %v, want 1", fw.Weight)
	}
	paths := g.Paths()
	if len(paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(paths))
	}
	for i, p := range paths {
		if len(p) != 3 {
			t.Errorf("path %d has %d nodes", i, len(p))
		}
	}
}

func TestExplicitWeights(t *testing.T) {
	g, err := Build(mustChain(t, `
chain w {
  b = BPF()
  x = ACL()
  y = Encrypt()
  f = IPv4Fwd()
  b -> [weight = 0.25] x
  b -> y
  x -> f
  y -> f
}`))
	if err != nil {
		t.Fatal(err)
	}
	if w := g.Nodes["x"].Weight; math.Abs(w-0.25) > 1e-9 {
		t.Errorf("x = %v", w)
	}
	if w := g.Nodes["y"].Weight; math.Abs(w-0.75) > 1e-9 {
		t.Errorf("y = %v (unset edge should take the remainder)", w)
	}
}

func TestNestedBranchWeights(t *testing.T) {
	g, err := Build(mustChain(t, `
chain nest {
  a = BPF()
  b = BPF()
  c = ACL()
  d = Encrypt()
  e = Decrypt()
  a -> [weight = 0.5] b
  a -> [weight = 0.5] c
  b -> [weight = 0.4] d
  b -> [weight = 0.6] e
}`))
	if err != nil {
		t.Fatal(err)
	}
	if w := g.Nodes["d"].Weight; math.Abs(w-0.2) > 1e-9 {
		t.Errorf("d = %v, want 0.2", w)
	}
	paths := g.Paths()
	if len(paths) != 3 {
		t.Errorf("paths = %d", len(paths))
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(mustChain(t, `
chain cyc {
  a = ACL()
  b = NAT()
  a -> b
  b -> a
}`)); !errors.Is(err, errCycle) {
		// A->B->A has no entry node, so errNoRoot is also acceptable
		// evidence of rejection; require any error mentioning structure.
		if !errors.Is(err, errNoRoot) {
			t.Errorf("cycle: %v", err)
		}
	}
	if _, err := Build(mustChain(t, `
chain multi {
  a = ACL()
  b = NAT()
  c = IPv4Fwd()
  a -> c
  b -> c
}`)); !errors.Is(err, errMultipleRoots) {
		t.Errorf("multi-root: %v", err)
	}
	if _, err := Build(mustChain(t, `
chain over {
  a = BPF()
  b = ACL()
  c = NAT()
  a -> [weight = 0.8] b
  a -> [weight = 0.7] c
}`)); err == nil {
		t.Error("overweight branches must fail")
	}
	if _, err := Build(mustChain(t, `
chain under {
  a = BPF()
  b = ACL()
  c = NAT()
  a -> [weight = 0.2] b
  a -> [weight = 0.3] c
}`)); err == nil {
		t.Error("underweight branches with no unset edge must fail")
	}
	// Inner cycle reachable from root.
	if _, err := Build(mustChain(t, `
chain innercyc {
  r = BPF()
  a = ACL()
  b = NAT()
  r -> a
  a -> b
  b -> a
}`)); !errors.Is(err, errCycle) {
		t.Errorf("inner cycle: %v", err)
	}
}
