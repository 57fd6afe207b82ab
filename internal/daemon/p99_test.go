package daemon

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"lemur/internal/placer"
)

// tailChain is chainText with a rate cap and a tail bound: t_max keeps the
// Monitor subgroup below its one-core capacity, so the M/M/1 estimate is
// finite and the bound can be met.
const tailChain = `
chain tail {
  slo { tmin = 1Gbps  tmax = 3Gbps  dmax_p99 = 200us }
  aggregate { src = 10.6.0.0/16 }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}`

// saturatedChain cannot meet its tail bound: without a t_max the rate LP
// runs the non-replicable Limiter at exactly its capacity (ρ = 1), where the
// p99 estimate is unbounded.
const saturatedChain = `
chain dp {
  slo { tmin = 100Mbps  dmax_p99 = 50us }
  aggregate { src = 10.7.0.0/16 }
  lim0 = Limiter()
  fwd0 = IPv4Fwd()
  lim0 -> fwd0
}`

// rawDoc is specDoc over literal chain text.
func rawDoc(t *testing.T, chains ...string) []byte {
	t.Helper()
	raw, err := json.Marshal(&Spec{
		Chains:    strings.Join(chains, "\n"),
		Hardware:  HardwareSpec{Servers: 2},
		Placement: PlacementSpec{HeadroomCores: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func chainStatus(t *testing.T, st *Status, name string) ChainStatus {
	t.Helper()
	for _, c := range st.Chains {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("status lists no chain %q: %+v", name, st.Chains)
	return ChainStatus{}
}

// TestStatusPredictedP99AfterAdmission: a tail-bounded chain admitted into a
// running daemon (the incremental door, not the first apply) is reported
// with the placement's own p99 prediction and judged against its bound; the
// chains that were already running keep a prediction too, and the status
// stays JSON-encodable whatever the estimates are.
func TestStatusPredictedP99AfterAdmission(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	if _, err := d.SetSpec(rawDoc(t, chainText("alpha", 2)), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("initial apply failed: %+v", rr)
	}
	if _, err := d.SetSpec(rawDoc(t, chainText("alpha", 2), tailChain), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged || len(rr.Admitted) != 1 {
		t.Fatalf("tail-bounded admission did not land: %+v", rr)
	}

	st := d.StatusSnapshot()
	tail := chainStatus(t, st, "tail")
	d.mu.Lock()
	res := d.st.res
	d.mu.Unlock()
	if len(res.PredictedP99Sec) != len(res.ChainRates) {
		t.Fatalf("placement after the admission predicts %d chains, runs %d", len(res.PredictedP99Sec), len(res.ChainRates))
	}
	if want := res.PredictedP99Sec[tail.Slot]; tail.PredictedP99Sec <= 0 || tail.PredictedP99Sec != want {
		t.Errorf("tail predicted_p99_sec = %v, want the placement's %v", tail.PredictedP99Sec, want)
	}
	if !tail.SLOMet || tail.PredictedP99Sec > tail.DMaxP99Sec {
		t.Errorf("tail: slo_met=%v with p99 %v against bound %v", tail.SLOMet, tail.PredictedP99Sec, tail.DMaxP99Sec)
	}
	if alpha := chainStatus(t, st, "alpha"); alpha.PredictedP99Sec == 0 || !alpha.SLOMet {
		t.Errorf("alpha lost its prediction across the reconcile: %+v", alpha)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Errorf("status does not encode: %v", err)
	}
}

// TestStatusFailsClosed: a tail-bounded chain is "met" only on a finite
// prediction within its bound. An unbounded estimate reads -1 (JSON has no
// +Inf) and a missing one likewise; both are not met.
func TestStatusFailsClosed(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	if _, err := d.SetSpec(rawDoc(t, tailChain), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("initial apply failed: %+v", rr)
	}
	if c := chainStatus(t, d.StatusSnapshot(), "tail"); !c.SLOMet || c.PredictedP99Sec <= 0 {
		t.Fatalf("fixture must start met with a prediction: %+v", c)
	}
	for name, pred := range map[string][]float64{"missing": nil, "unbounded": {math.Inf(1)}} {
		d.mu.Lock()
		res := *d.st.res
		res.PredictedP99Sec = pred
		d.st.res = &res
		d.mu.Unlock()
		st := d.StatusSnapshot()
		if c := chainStatus(t, st, "tail"); c.SLOMet || c.PredictedP99Sec != -1 {
			t.Errorf("%s prediction: slo_met=%v predicted_p99_sec=%v, want false and -1", name, c.SLOMet, c.PredictedP99Sec)
		}
		if _, err := json.Marshal(st); err != nil {
			t.Errorf("%s prediction: status does not encode: %v", name, err)
		}
	}
}

// TestTailViolatingAdmissionRefused: a desired state whose new chain cannot
// meet its d_max_p99 is refused at the door like any other SLO violation —
// the p99 reason in last_error, the backoff armed — and the running chains
// keep their *Subgroup values and rates.
func TestTailViolatingAdmissionRefused(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	if _, err := d.SetSpec(rawDoc(t, chainText("alpha", 2), tailChain), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("initial apply failed: %+v", rr)
	}
	d.mu.Lock()
	before := d.st.res
	d.mu.Unlock()
	subs := append([]*placer.Subgroup(nil), before.Subgroups...)
	cores := make([]int, len(subs))
	for i, sg := range subs {
		cores[i] = sg.Cores
	}
	rates := append([]float64(nil), before.ChainRates...)

	if _, err := d.SetSpec(rawDoc(t, chainText("alpha", 2), tailChain, saturatedChain), "test"); err != nil {
		t.Fatal(err)
	}
	rr := d.Tick()
	if rr.Converged || !strings.Contains(rr.Err, "d_max_p99") || rr.BackoffUntil.IsZero() {
		t.Fatalf("want a refusal naming d_max_p99 with the backoff armed, got %+v", rr)
	}
	st := d.StatusSnapshot()
	if !strings.Contains(st.LastError, "d_max_p99") || !st.BackingOff || len(st.Chains) != 2 {
		t.Fatalf("status after the refusal: last_error=%q backing_off=%v chains=%d", st.LastError, st.BackingOff, len(st.Chains))
	}
	d.mu.Lock()
	after := d.st.res
	d.mu.Unlock()
	if after != before || len(after.Subgroups) != len(subs) {
		t.Fatalf("the refused admission replaced the running placement")
	}
	for i, sg := range after.Subgroups {
		if sg != subs[i] || sg.Cores != cores[i] {
			t.Errorf("subgroup %d moved or was written by the refused admission", i)
		}
	}
	for ci, r := range after.ChainRates {
		if r != rates[ci] {
			t.Errorf("chain %d rate moved: %v -> %v", ci, rates[ci], r)
		}
	}
}
