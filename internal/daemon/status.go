package daemon

import (
	"math"
	"sort"

	"lemur/internal/hw"
)

// Status is the daemon's operator-facing state report, served by
// GET /v1/status and rendered by `lemurd status`.
type Status struct {
	// Generation is the latest accepted desired-state generation,
	// AppliedGeneration the one actual state matches; Converged reports
	// desired == actual with all failures handled.
	Generation        int64 `json:"generation"`
	AppliedGeneration int64 `json:"applied_generation"`
	Converged         bool  `json:"converged"`
	// Chains reports every live chain's placement and SLO verdict, sorted
	// by name.
	Chains []ChainStatus `json:"chains"`
	// Headroom reports per-server admission headroom, sorted by server.
	Headroom []ServerHeadroom `json:"headroom"`
	// FailedNodes is the expanded dead set (failed servers plus the
	// SmartNICs they host), sorted.
	FailedNodes []string `json:"failed_nodes,omitempty"`
	// Counters are the reconcile-loop counters for this daemon instance.
	Counters Counters `json:"counters"`
	// LastError is the most recent transient reconcile failure ("" when
	// none); LastRejectedSpec describes the most recent validation
	// rejection; BackingOff reports a pending retry.
	LastError        string `json:"last_error,omitempty"`
	LastRejectedSpec string `json:"last_rejected_spec,omitempty"`
	BackingOff       bool   `json:"backing_off,omitempty"`
	// SnapshotError is the last failed snapshot write, checkpoint or
	// compaction: entries since then may not be durable. It stays until a
	// later append or compaction succeeds, whatever the reconcile passes do.
	SnapshotError string `json:"snapshot_error,omitempty"`
}

// ChainStatus is one chain's placement and SLO verdict.
type ChainStatus struct {
	// Name is the chain's spec name; Slot its placement slot (the slot
	// determines the chain's SPI range; slots are never reused).
	Name string `json:"name"`
	Slot int    `json:"slot"`
	// RateBps is the LP-assigned rate; TMinBps/TMaxBps the SLO band.
	RateBps float64 `json:"rate_bps"`
	TMinBps float64 `json:"tmin_bps"`
	TMaxBps float64 `json:"tmax_bps"`
	// PredictedP99Sec is the placement's queueing-model tail-latency
	// estimate, -1 when it is unbounded (a subgroup on the chain's worst
	// path runs at ρ >= 1; JSON cannot carry +Inf) or missing; DMaxP99Sec
	// the bound it is judged against (0 = none).
	PredictedP99Sec float64 `json:"predicted_p99_sec"`
	DMaxP99Sec      float64 `json:"dmax_p99_sec,omitempty"`
	// SLOMet is the verdict: rate within the SLO band and the p99 estimate
	// within its bound. It fails closed: a tail-bounded chain without a
	// finite prediction is not met.
	SLOMet bool `json:"slo_met"`
	// Servers and Devices list where the chain runs: servers hosting its
	// subgroups and NIC/switch devices it uses, each sorted.
	Servers []string `json:"servers,omitempty"`
	Devices []string `json:"devices,omitempty"`
	// Cores is the chain's total worker-core allocation.
	Cores int `json:"cores"`
}

// ServerHeadroom is one server's admission headroom: worker cores not
// allocated to any subgroup. The configured headroom reserve
// (placement.headroom_cores) is carved out of Free, not in addition to it.
type ServerHeadroom struct {
	// Server names the server; Total its worker cores; Used the cores
	// allocated to live subgroups; Free the remainder. Failed marks a
	// server in the dead set (its Free is not admissible headroom).
	Server string `json:"server"`
	Total  int    `json:"total"`
	Used   int    `json:"used"`
	Free   int    `json:"free"`
	Failed bool   `json:"failed,omitempty"`
}

// StatusSnapshot assembles the operator status report.
func (d *Daemon) StatusSnapshot() *Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &Status{
		Generation:        d.generation,
		AppliedGeneration: d.appliedGen,
		Converged:         d.converged,
		Counters:          d.counters,
		LastError:         d.lastErr,
		SnapshotError:     d.snapErr,
		LastRejectedSpec:  d.lastReject,
		BackingOff:        d.backoff.active,
	}
	if d.st == nil {
		return st
	}
	st.FailedNodes = d.st.dead.Names()
	st.Chains = d.chainStatusesLocked()
	st.Headroom = d.headroomLocked()
	return st
}

// chainStatusesLocked builds the per-chain placement and SLO verdicts from
// the current placement result.
func (d *Daemon) chainStatusesLocked() []ChainStatus {
	res, in := d.st.res, d.st.in
	var out []ChainStatus
	for slot, s := range d.st.slots {
		if s.Retired || slot >= len(in.Chains) {
			continue
		}
		g := in.Chains[slot]
		cs := ChainStatus{
			Name:       s.Name,
			Slot:       slot,
			TMinBps:    g.Chain.SLO.TMinBps,
			TMaxBps:    g.Chain.SLO.TMaxBps,
			DMaxP99Sec: g.Chain.SLO.DMaxP99Sec,
		}
		if slot < len(res.ChainRates) {
			cs.RateBps = res.ChainRates[slot]
		}
		p99 := math.Inf(1) // no prediction: nothing shows a tail bound is met
		if slot < len(res.PredictedP99Sec) {
			p99 = res.PredictedP99Sec[slot]
		}
		servers, devices := map[string]bool{}, map[string]bool{}
		for _, sg := range res.Subgroups {
			if sg.ChainIdx == slot {
				servers[sg.Server] = true
				cs.Cores += sg.Cores
			}
		}
		for _, u := range res.NICUses {
			if u.ChainIdx == slot {
				devices[u.Device] = true
			}
		}
		for _, n := range g.Order {
			if a, ok := res.Assign[n]; ok && a.Platform == hw.PISA && a.Device != "" {
				devices[a.Device] = true
			}
		}
		cs.Servers = sortedKeys(servers)
		cs.Devices = sortedKeys(devices)
		cs.SLOMet = cs.RateBps >= cs.TMinBps-1 && (cs.DMaxP99Sec == 0 || p99 <= cs.DMaxP99Sec)
		cs.PredictedP99Sec = p99
		if math.IsInf(p99, 1) {
			cs.PredictedP99Sec = -1
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// headroomLocked computes per-server admission headroom from the worker
// core budget minus live subgroup allocations.
func (d *Daemon) headroomLocked() []ServerHeadroom {
	used := map[string]int{}
	for _, sg := range d.st.res.Subgroups {
		if !d.st.res.IsRetired(sg.ChainIdx) {
			used[sg.Server] += sg.Cores
		}
	}
	var out []ServerHeadroom
	for _, srv := range d.st.topo.Servers {
		total := srv.WorkerCores()
		out = append(out, ServerHeadroom{
			Server: srv.Name,
			Total:  total,
			Used:   used[srv.Name],
			Free:   total - used[srv.Name],
			Failed: d.st.dead[srv.Name],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out
}

// freeCoresLocked totals the free worker cores on surviving servers, for
// the headroom gauge: headroomLocked's Free summed over its servers that did
// not fail, without building the table. Every reconcile pass sets the gauge,
// idle ones included.
func (d *Daemon) freeCoresLocked() int {
	free := 0
	for _, srv := range d.st.topo.Servers {
		if !d.st.dead[srv.Name] {
			free += srv.WorkerCores()
		}
	}
	for _, sg := range d.st.res.Subgroups {
		if !d.st.res.IsRetired(sg.ChainIdx) && !d.st.dead[sg.Server] {
			free -= sg.Cores
		}
	}
	return free
}

// sortedKeys returns a set's members sorted.
func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
