package metacompiler

import (
	"strings"
	"testing"

	"lemur/internal/hw"
)

// TestDeadlineSlacks: a deadline-bearing chain yields one slack per server
// subgroup, strictly decreasing along the chain (downstream subgroups have
// burned more of the deadline), below the deadline itself (switch pipeline
// and the server hop always precede a subgroup), and the emitted BESS
// scheduler switches to an EDF tree annotated with that slack.
func TestDeadlineSlacks(t *testing.T) {
	src := `
chain dl {
  slo { tmin = 1Gbps  tmax = 20Gbps  dmax = 500us }
  aggregate { src = 10.0.0.0/8 }
  nat0 = NAT()
  lim0 = Limiter()
  fwd0 = IPv4Fwd()
  nat0 -> lim0 -> fwd0
}`
	_, d := compileSpec(t, hw.NewPaperTestbed(), src)
	slacks := d.DeadlineSlacks()
	if len(slacks) == 0 {
		t.Fatal("deadline-bearing chain produced no slacks")
	}
	dl := 500e-6
	for psg, s := range slacks {
		if s <= 0 || s >= dl {
			t.Errorf("subgroup %s slack %v out of (0, %v)", psg.Name(), s, dl)
		}
	}
	// Every slack map entry must resolve to an installed subgroup name on
	// the pipeline, and the script must carry the EDF tree.
	named := d.subgroupSlacks("nf-server-0", slacks)
	if len(named) == 0 {
		t.Fatal("no named slacks for the hosting server")
	}
	script := d.Artifacts().BESSScripts["nf-server-0"]
	if !strings.Contains(script, "deadline_edf") || !strings.Contains(script, "slack") {
		t.Errorf("BESS script lacks the EDF scheduler:\n%s", script)
	}
	if strings.Contains(script, "round_robin") {
		t.Errorf("deadline core still renders round_robin:\n%s", script)
	}

	// A deadline-free compile of the same NFs must not produce slacks and
	// must keep round-robin.
	_, d2 := compileSpec(t, hw.NewPaperTestbed(), strings.Replace(src, "  dmax = 500us", "", 1))
	if s := d2.DeadlineSlacks(); len(s) != 0 {
		t.Errorf("deadline-free deployment produced slacks: %v", s)
	}
	if d2.subgroupSlacks("nf-server-0", nil) != nil {
		t.Error("subgroupSlacks(nil) must be nil")
	}
	script2 := d2.Artifacts().BESSScripts["nf-server-0"]
	if !strings.Contains(script2, "round_robin") || strings.Contains(script2, "deadline_edf") {
		t.Errorf("deadline-free script not round-robin:\n%s", script2)
	}

	// d_max_p99 alone also arms EDF (the effective deadline falls back to
	// the tail bound).
	_, d3 := compileSpec(t, hw.NewPaperTestbed(),
		strings.Replace(src, "dmax = 500us", "dmax_p99 = 800us", 1))
	if len(d3.DeadlineSlacks()) == 0 {
		t.Error("d_max_p99-only chain produced no slacks")
	}
}

// TestDeadlineSlacksBranched: on a branched chain, sibling server arms
// entered at the same depth share the upstream delay (equal slack), and a
// subgroup downstream of another server subgroup on the same arm has
// strictly less slack (the upstream subgroup's execution burned into it).
func TestDeadlineSlacksBranched(t *testing.T) {
	src := `
chain br {
  slo { tmin = 500Mbps  tmax = 20Gbps  dmax = 2ms }
  aggregate { src = 10.0.0.0/8 }
  bpf0 = BPF()
  enc0 = Encrypt()
  enc1 = Encrypt()
  lim1 = Limiter()
  fwd0 = IPv4Fwd()
  bpf0 -> [weight = 0.5] enc0
  bpf0 -> [weight = 0.5] enc1
  enc0 -> fwd0
  enc1 -> lim1
  lim1 -> fwd0
}`
	_, d := compileSpec(t, hw.NewPaperTestbed(), src)
	slacks := d.DeadlineSlacks()
	byFirst := map[string]float64{}
	for psg, s := range slacks {
		byFirst[psg.Nodes[0].Name()] = s
	}
	s0, ok0 := byFirst["enc0"]
	s1, ok1 := byFirst["enc1"]
	if !ok0 || !ok1 {
		t.Fatalf("missing arm slacks, got %v", byFirst)
	}
	if s0 != s1 {
		t.Errorf("sibling arms entered at equal depth differ: %v vs %v", s0, s1)
	}
	if sl, ok := byFirst["lim1"]; ok && sl >= s1 {
		t.Errorf("downstream lim1 slack %v >= upstream enc1 slack %v", sl, s1)
	}
	if len(slacks) < 2 {
		t.Fatalf("branched chain slacks = %d, want >= 2", len(slacks))
	}
}
