// Chain admission and retirement are the admit and retire kinds of
// chaos.Plan. These tests drive that half of the grammar through the
// package's exported API only, the way the facade and the CLIs reach it.
package chaos_test

import (
	"strings"
	"testing"

	"lemur/internal/chaos"
)

func TestParse(t *testing.T) {
	usec := 1e-6 // runtime multiply, matching the parser's float arithmetic
	for _, tc := range []struct {
		in   string
		want []chaos.Event
	}{
		{"admit:chain6@0.3s", []chaos.Event{{Kind: chaos.Admit, Target: "chain6", AtSec: 0.3}}},
		{"add:web@300ms", []chaos.Event{{Kind: chaos.Admit, Target: "web", AtSec: 0.3}}},
		{"arrive:web@50us", []chaos.Event{{Kind: chaos.Admit, Target: "web", AtSec: 50 * usec}}},
		{"retire:chain2@0.6s", []chaos.Event{{Kind: chaos.Retire, Target: "chain2", AtSec: 0.6}}},
		{"remove:chain2@0.6", []chaos.Event{{Kind: chaos.Retire, Target: "chain2", AtSec: 0.6}}},
		{"depart:chain2@600ms", []chaos.Event{{Kind: chaos.Retire, Target: "chain2", AtSec: 0.6}}},
		{"admit:a@0.1s;retire:b@0.2s", []chaos.Event{{Kind: chaos.Admit, Target: "a", AtSec: 0.1}, {Kind: chaos.Retire, Target: "b", AtSec: 0.2}}},
		{"admit:a@0.1 , retire:b@0.2s", []chaos.Event{{Kind: chaos.Admit, Target: "a", AtSec: 0.1}, {Kind: chaos.Retire, Target: "b", AtSec: 0.2}}},
		// Normalize sorts by time regardless of authored order.
		{"retire:b@0.4s;admit:a@0.1s", []chaos.Event{{Kind: chaos.Admit, Target: "a", AtSec: 0.1}, {Kind: chaos.Retire, Target: "b", AtSec: 0.4}}},
		{" ADMIT:web@1s ", []chaos.Event{{Kind: chaos.Admit, Target: "web", AtSec: 1}}},
		{";;", nil},
		{"", nil},
	} {
		p, err := chaos.Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if len(p.Events) != len(tc.want) {
			t.Errorf("Parse(%q): %d events, want %d", tc.in, len(p.Events), len(tc.want))
			continue
		}
		for i, ev := range p.Events {
			if ev != tc.want[i] {
				t.Errorf("Parse(%q) event %d = %+v, want %+v", tc.in, i, ev, tc.want[i])
			}
			if !ev.Kind.Churn() {
				t.Errorf("Parse(%q) event %d: kind %v is not a churn kind", tc.in, i, ev.Kind)
			}
		}
	}
}

func TestParseChurnErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"chain6@0.3s", "want kind:target@time"},
		{"evict:chain6@0.3s", "unknown kind"},
		{"admit:chain6", "missing @time"},
		{"admit:@0.3s", "empty target"},
		{"admit:web@soon", "bad time"},
		{"admit:web@0.1sx2", "bad time"}, // admit and retire take no factor
		{"admit:web@-1s", "negative time"},
	} {
		_, err := chaos.Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q): want error, got nil", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q, want substring %q", tc.in, err, tc.want)
		}
	}
}

func TestNormalizeStable(t *testing.T) {
	p := &chaos.Plan{Events: []chaos.Event{
		{Kind: chaos.Admit, Target: "first", AtSec: 0.5},
		{Kind: chaos.Retire, Target: "second", AtSec: 0.5},
		{Kind: chaos.Admit, Target: "early", AtSec: 0.1},
	}}
	p.Normalize()
	want := []string{"early", "first", "second"}
	for i, ev := range p.Events {
		if ev.Target != want[i] {
			t.Fatalf("event %d = %s, want %s (stable sort by time)", i, ev.Target, want[i])
		}
	}
}

func TestDelays(t *testing.T) {
	// A churn schedule shares the fault kinds' control-plane timing model.
	p, err := chaos.Parse("admit:web@0.3s")
	if err != nil {
		t.Fatal(err)
	}
	d, r := p.Delays()
	if d != chaos.DefaultDetectionDelaySec || r != chaos.DefaultReconfigDelaySec {
		t.Fatalf("parsed plan delays = (%g, %g), want chaos defaults", d, r)
	}
	p.DetectionDelaySec, p.ReconfigDelaySec = 0.5, 0.25
	if d, r = p.Delays(); d != 0.5 || r != 0.25 {
		t.Fatalf("override delays = (%g, %g), want (0.5, 0.25)", d, r)
	}
	// Negative means "explicitly immediate": clamps to zero rather than
	// falling back to the defaults.
	p.DetectionDelaySec, p.ReconfigDelaySec = -1, -1
	if d, r = p.Delays(); d != 0 || r != 0 {
		t.Fatalf("negative delays = (%g, %g), want (0, 0)", d, r)
	}
}

func TestEmptyAndString(t *testing.T) {
	var nilPlan *chaos.Plan
	if !nilPlan.Empty() || !(&chaos.Plan{}).Empty() {
		t.Fatal("nil and zero plans must be Empty")
	}
	if s := nilPlan.String(); s != "" {
		t.Fatalf("nil plan String = %q, want empty", s)
	}
	p, err := chaos.Parse("admit:web@0.3s;retire:db@0.6s")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "admit:web@0.3s;retire:db@0.6s"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestValidate(t *testing.T) {
	if err := (&chaos.Plan{Events: []chaos.Event{{Kind: chaos.Kind(9), Target: "x", AtSec: 1}}}).Validate(); err == nil {
		t.Fatal("unknown kind must fail validation")
	}
	for _, k := range []chaos.Kind{chaos.Admit, chaos.Retire} {
		if err := (&chaos.Plan{Events: []chaos.Event{{Kind: k, Target: "x", AtSec: 1}}}).Validate(); err != nil {
			t.Fatalf("well-formed %v plan rejected: %v", k, err)
		}
	}
}
