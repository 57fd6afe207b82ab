package metacompiler

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lemur/internal/bess"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
)

// restoreFromRecord rebuilds d the way a restarting lemurd does: its
// placement through a placer.Record and JSON, against an input whose retired
// slots hold empty graphs, then Restore with d's shares and install order.
func restoreFromRecord(t *testing.T, d *Deployment) *Deployment {
	t.Helper()
	rec, err := placer.RecordOf(d.Input, d.Result)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back placer.Record
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	in := *d.Input
	in.Chains = make([]*nfgraph.Graph, len(d.Input.Chains))
	for ci, g := range d.Input.Chains {
		if d.Result.IsRetired(ci) {
			g = &nfgraph.Graph{Chain: &nfspec.Chain{}}
		}
		in.Chains[ci] = g
	}
	res, err := back.Decode(&in)
	if err != nil {
		t.Fatal(err)
	}
	shares := make(map[*placer.Subgroup][]bess.CoreShare, len(res.Subgroups))
	for i, sg := range d.Result.Subgroups {
		shares[res.Subgroups[i]] = d.Shares[sg]
	}
	r, err := Restore(&in, res, shares, d.InstallOrder())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// installed renders what a deployment installed in the order it holds it:
// classifier rules, each pipeline's subgroups with their shares, and each
// NIC's programs.
func installed(d *Deployment) string {
	var b strings.Builder
	for _, r := range d.Switch.ClassifierRules() {
		b.WriteString(" rule ")
		writeInt(&b, int(r.SPI))
	}
	for _, name := range sortedKeys(d.Pipelines) {
		b.WriteString("\n" + name + ":")
		for _, sg := range d.Pipelines[name].Subgroups() {
			b.WriteString(" " + sg.Name)
			for _, s := range sg.Shares {
				b.WriteString("@")
				writeInt(&b, s.Core)
			}
		}
	}
	for _, name := range sortedKeys(d.NICs) {
		b.WriteString("\n" + name + ":")
		for _, pp := range d.NICs[name].PathPrograms() {
			b.WriteString(" " + pp.Prog.Name)
		}
	}
	return b.String()
}

// TestRestoreMatchesApplied: after every seeded compile and applied delta,
// a deployment restored from its recorded placement, core shares and
// install order renders the same artifacts and holds its rules, subgroups,
// cores and NIC programs in the same order as the one the applies built.
func TestRestoreMatchesApplied(t *testing.T) {
	n := 0
	applyTrials(t, func(trial, step int, _ placer.Delta, d *Deployment) {
		r := restoreFromRecord(t, d)
		if got, want := installed(r), installed(d); got != want {
			t.Fatalf("trial %d step %d: restored install differs:\n want %s\n got  %s", trial, step, want, got)
		}
		if !reflect.DeepEqual(r.Artifacts(), d.Artifacts()) {
			t.Fatalf("trial %d step %d: restored artifacts differ", trial, step)
		}
		n++
	})
	if n < 100 {
		t.Fatalf("only %d deployments restored", n)
	}
}

// TestRestoreRefusesBadOrder: an install order that is not the live slots,
// each once, is refused.
func TestRestoreRefusesBadOrder(t *testing.T) {
	done := false
	applyTrials(t, func(trial, step int, _ placer.Delta, d *Deployment) {
		order := d.InstallOrder()
		if done || len(order) < 2 {
			return
		}
		done = true
		for _, bad := range [][]int{order[1:], append(order, order[0]), append([]int{-1}, order[1:]...)} {
			if _, err := Restore(d.Input, d.Result, nil, bad); err == nil {
				t.Fatalf("install order %v (live %v) accepted", bad, order)
			}
		}
	})
}
