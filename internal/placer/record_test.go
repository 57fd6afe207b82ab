package placer

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// roundTrip encodes res as a Record, through JSON, and decodes it against
// in.
func roundTrip(t *testing.T, in *Input, res *Result) *Result {
	t.Helper()
	rec, err := RecordOf(in, res)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Decode(in)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(raw) {
		t.Fatalf("a decoded record encodes differently:\n%s\n%s", raw, again)
	}
	return got
}

// sameResult compares everything a Record keeps.
func sameResult(t *testing.T, what string, want, got *Result) {
	t.Helper()
	w, g := *want, *got
	w.PlaceTime, w.Search, w.Reason = 0, nil, ""
	if !reflect.DeepEqual(&w, &g) {
		t.Fatalf("%s: decoded result differs:\n want %+v\n got  %+v", what, &w, &g)
	}
}

// TestRecordRoundTrip: a placement, and the Reconfigure results of a
// combined delta (admit, retire, fail) after it, decode from their Records
// to the same Result: same assignment per node, subgroups and NIC uses in
// order, rates, p99s (+Inf kept) and retired slots.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 0
	for trial := 0; trial < 20; trial++ {
		d := drawCombined(t, rng)
		prev, err := Place(SchemeLemur, d.baseIn)
		if err != nil || !prev.Feasible {
			continue
		}
		sameResult(t, "place", prev, roundTrip(t, d.baseIn, prev))
		rep, err := Reconfigure(prev, d.grownIn, d.delta)
		if err != nil || rep.Outcome != AdmitIncremental {
			continue
		}
		res := rep.Result
		sameResult(t, "reconfigure", res, roundTrip(t, d.grownIn, res))
		n++

		sat := *res
		sat.PredictedP99Sec = append([]float64(nil), res.PredictedP99Sec...)
		for ci := range sat.PredictedP99Sec {
			if !sat.IsRetired(ci) {
				sat.PredictedP99Sec[ci] = math.Inf(1)
				break
			}
		}
		sameResult(t, "saturated", &sat, roundTrip(t, d.grownIn, &sat))
	}
	if n == 0 {
		t.Fatal("no draw reconfigured incrementally")
	}
}

// TestRecordRefuses: what a Record could not give back is refused on the
// way in, and a record that does not fit its input on the way out.
func TestRecordRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var in *Input
	var res *Result
	for res == nil || !res.Feasible {
		d := drawCombined(t, rng)
		in = d.baseIn
		var err error
		if res, err = Place(SchemeLemur, in); err != nil {
			t.Fatal(err)
		}
	}
	bad := *res
	bad.Feasible, bad.Reason = false, "no"
	if _, err := RecordOf(in, &bad); err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("infeasible result: %v", err)
	}
	short := *in
	short.Chains = in.Chains[:len(in.Chains)-1]
	if _, err := RecordOf(&short, res); err == nil {
		t.Fatal("a result for another input was recorded")
	}
	rec, err := RecordOf(in, res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Decode(&short); err == nil {
		t.Fatal("a record decoded against an input with fewer chains")
	}
	renamed := *rec
	renamed.Chains = append([]ChainRecord(nil), rec.Chains...)
	renamed.Chains[0].Assign = append([]AssignRecord{{Node: "nosuch"}}, rec.Chains[0].Assign...)
	if _, err := renamed.Decode(in); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown node: %v", err)
	}
}
