package chaos

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseSingleCrash(t *testing.T) {
	p, err := Parse("crash:nf-server-1@0.3s")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{Kind: Crash, Target: "nf-server-1", AtSec: 0.3}}
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("got %+v want %+v", p.Events, want)
	}
}

func TestParseFormats(t *testing.T) {
	usec := 1e-6 // runtime multiply, matching the parser's float arithmetic
	cases := []struct {
		in   string
		want []Event
	}{
		{"crash:s1@300ms", []Event{{Kind: Crash, Target: "s1", AtSec: 0.3}}},
		{"crash:s1@0.25", []Event{{Kind: Crash, Target: "s1", AtSec: 0.25}}},
		{"crash:s1@100us", []Event{{Kind: Crash, Target: "s1", AtSec: 100 * usec}}},
		{"degrade:nic0@0.1s", []Event{{Kind: LinkDegrade, Target: "nic0", AtSec: 0.1, Factor: 0.5}}},
		{"degrade:nic0@0.1sx0.25", []Event{{Kind: LinkDegrade, Target: "nic0", AtSec: 0.1, Factor: 0.25}}},
		{"overload:s2@50msx8", []Event{{Kind: NFOverload, Target: "s2", AtSec: 0.05, Factor: 8}}},
		{"overload:s2@0.05s", []Event{{Kind: NFOverload, Target: "s2", AtSec: 0.05, Factor: 4}}},
		{" kill:s1@1s ", []Event{{Kind: Crash, Target: "s1", AtSec: 1}}},
		{"admit:chain6@0.3s", []Event{{Kind: Admit, Target: "chain6", AtSec: 0.3}}},
		{"add:web@300ms", []Event{{Kind: Admit, Target: "web", AtSec: 0.3}}},
		{"arrive:web@50us", []Event{{Kind: Admit, Target: "web", AtSec: 50 * usec}}},
		{"retire:chain2@0.6s", []Event{{Kind: Retire, Target: "chain2", AtSec: 0.6}}},
		{"remove:chain2@0.6", []Event{{Kind: Retire, Target: "chain2", AtSec: 0.6}}},
		{"depart:chain2@600ms", []Event{{Kind: Retire, Target: "chain2", AtSec: 0.6}}},
		{" ADMIT:web@1s ", []Event{{Kind: Admit, Target: "web", AtSec: 1}}},
		{"admit:a@0.1s;retire:b@0.2s", []Event{{Kind: Admit, Target: "a", AtSec: 0.1}, {Kind: Retire, Target: "b", AtSec: 0.2}}},
		{"admit:a@0.1 , retire:b@0.2s", []Event{{Kind: Admit, Target: "a", AtSec: 0.1}, {Kind: Retire, Target: "b", AtSec: 0.2}}},
		// Normalize sorts by time regardless of authored order, and stably:
		// equal-time events keep it.
		{"retire:b@0.4s;admit:a@0.1s", []Event{{Kind: Admit, Target: "a", AtSec: 0.1}, {Kind: Retire, Target: "b", AtSec: 0.4}}},
		{"admit:first@0.5;retire:second@0.5;admit:early@0.1", []Event{
			{Kind: Admit, Target: "early", AtSec: 0.1}, {Kind: Admit, Target: "first", AtSec: 0.5}, {Kind: Retire, Target: "second", AtSec: 0.5},
		}},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if !reflect.DeepEqual(p.Events, c.want) {
			t.Fatalf("%q: got %+v want %+v", c.in, p.Events, c.want)
		}
	}
}

func TestParseMultiSortedByTime(t *testing.T) {
	p, err := Parse("crash:b@0.4s;degrade:a@0.1sx0.5,overload:c@0.2sx2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 {
		t.Fatalf("want 3 events, got %d", len(p.Events))
	}
	for i := 1; i < len(p.Events); i++ {
		if p.Events[i-1].AtSec > p.Events[i].AtSec {
			t.Fatalf("events not sorted: %+v", p.Events)
		}
	}
	if p.Events[2].Target != "b" {
		t.Fatalf("latest event should be the crash of b: %+v", p.Events)
	}
}

// TestParseErrors: each malformed event is refused with its reason, a NaN
// or infinite time or factor among them (Simulate refuses a hand-built one
// too: TestSimulateRejectsNonFinitePlan).
func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"boom:s1@0.1s", "unknown kind"},
		{"evict:chain6@0.3s", "unknown kind"},
		{"crash:s1", "missing @time"},
		{"admit:chain6", "missing @time"},
		{"crash:@0.1s", "empty target"},
		{"admit:@0.3s", "empty target"},
		{"crash:s1@zebra", "bad time"},
		{"admit:web@soon", "bad time"},
		{"admit:web@0.1sx2", "bad time"}, // only degrade and overload take a factor
		{"crash:s1@-1s", "negative time"},
		{"admit:web@-1s", "negative time"},
		{"degrade:s1@0.1sx1.5", "outside [0,1]"},
		{"overload:s1@0.1sx0.5", "< 1"},
		{"nocolon", "want kind:target@time"},
		{"chain6@0.3s", "want kind:target@time"},
		// NaN passes every ordered comparison, so each must be caught on
		// its own: a NaN time never comes due and stalls the schedule.
		{"crash:s1@NaN", "not finite"},
		{"retire:c@nans", "not finite"},
		{"crash:s1@Infs", "not finite"},
		{"admit:c@+inf", "not finite"},
		{"degrade:s1@0.1sxNaN", "not finite"},
		{"overload:s1@0.1sxInf", "not finite"},
	} {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q): want error, got nil", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q, want substring %q", tc.in, err, tc.want)
		}
	}
	// Hand-built plans reach Validate without the parser's filters.
	for _, e := range []Event{
		{Kind: Kind(9), Target: "x", AtSec: 1},
		{Kind: Crash, Target: "x", AtSec: math.NaN()},
		{Kind: Admit, Target: "x", AtSec: math.Inf(1)},
		{Kind: Crash, Target: "x", AtSec: 1, Factor: math.NaN()},
		{Kind: NFOverload, Target: "x", AtSec: 1, Factor: math.Inf(1)},
	} {
		if err := (&Plan{Events: []Event{e}}).Validate(); err == nil {
			t.Errorf("Validate(%+v): want error, got nil", e)
		}
	}
	if err := (&Plan{Events: []Event{{Kind: Admit, Target: "x", AtSec: 1}}}).Validate(); err != nil {
		t.Fatalf("well-formed plan rejected: %v", err)
	}
}

func TestParseEmptyIsEmptyPlan(t *testing.T) {
	for _, in := range []string{"", " ", ";;", ", ,"} {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if !p.Empty() {
			t.Fatalf("Parse(%q): want empty plan, got %+v", in, p.Events)
		}
	}
	var nilPlan *Plan
	if !nilPlan.Empty() || !(&Plan{}).Empty() {
		t.Fatal("nil and zero plans must be Empty")
	}
	if s := nilPlan.String(); s != "" {
		t.Fatalf("nil plan String = %q, want empty", s)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"crash:s1@0.3s;degrade:nic@0.1sx0.25;overload:s2@0.2sx8",
		"admit:web@0.3s;retire:db@0.6s",
	} {
		p, err := Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(p.Events, p2.Events) {
			t.Fatalf("round trip changed events:\n  %+v\n  %+v", p.Events, p2.Events)
		}
	}
	// A schedule already in canonical form renders to itself.
	p, err := Parse("admit:web@0.3s;retire:db@0.6s")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "admit:web@0.3s;retire:db@0.6s"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestDelaysDefaultsAndOverrides(t *testing.T) {
	var nilPlan *Plan
	d, r := nilPlan.Delays()
	if d != defaultDetectionDelaySec || r != defaultReconfigDelaySec {
		t.Fatalf("nil plan delays: got %g,%g", d, r)
	}
	p := &Plan{DetectionDelaySec: 0.001, ReconfigDelaySec: 0.002}
	d, r = p.Delays()
	if d != 0.001 || r != 0.002 {
		t.Fatalf("override delays: got %g,%g", d, r)
	}
	// Negative means "explicitly zero" (instant failover).
	p = &Plan{DetectionDelaySec: -1, ReconfigDelaySec: -1}
	d, r = p.Delays()
	if d != 0 || r != 0 {
		t.Fatalf("explicit-zero delays: got %g,%g", d, r)
	}
}

// FuzzPlan: any string either fails Parse or yields a valid plan of finite
// times and factors whose String re-parses to the identical schedule — the
// grammar and its renderer are inverses on the accepted language.
func FuzzPlan(f *testing.F) {
	for _, s := range []string{
		"admit:chain6@0.3s",
		"admit:web@300ms;retire:chain2@0.6s",
		"add:a@0.1,remove:b@0.4s;arrive:c@50us",
		"depart:x@2",
		";;  ,admit:y@1e-3s",
		"crash:nf-server-1@0.3s",
		"kill:s1@300ms;fail:s2@100us",
		"degrade:nic0@0.1sx0.25,link:nic1@0.2s;slow:s3@1",
		"overload:s2@50msx8;hot:s4@0.05s",
		"crash:b@0.4s;degrade:a@0.1sx0.5,overload:c@0.2sx2;admit:d@0.3",
		"crash:s1@NaN",
		"degrade:s1@0.1sxNaN",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned an invalid plan: %v", s, err)
		}
		for _, e := range p.Events {
			if math.IsNaN(e.AtSec) || math.IsInf(e.AtSec, 0) || math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) {
				t.Fatalf("Parse(%q) accepted a non-finite event %+v", s, e)
			}
		}
		rendered := p.String()
		q, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(String(Parse(%q))) failed on %q: %v", s, rendered, err)
		}
		if got := q.String(); got != rendered {
			t.Fatalf("round-trip diverged: %q -> %q -> %q", s, rendered, got)
		}
		if len(q.Events) != len(p.Events) {
			t.Fatalf("round-trip changed event count: %d -> %d", len(p.Events), len(q.Events))
		}
		for i := range p.Events {
			if p.Events[i] != q.Events[i] {
				t.Fatalf("round-trip changed event %d: %+v -> %+v", i, p.Events[i], q.Events[i])
			}
		}
	})
}
