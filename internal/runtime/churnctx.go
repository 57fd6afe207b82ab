package runtime

// ChurnReport extends a SimResult with the chain-churn outcome: which
// scheduled events fired, which were rejected (and why), when each admitted
// chain's rules landed and how long its first packet took to egress, how
// many packets the reconfigurations cost, and whether every chain still
// clears its SLO after the last churn event. Per-chain slices are indexed by
// final chain slot (admitted chains occupy the appended tail).
type ChurnReport struct {
	// Events lists every request that came due within the simulated
	// duration, rendered in the chaos grammar, in request order. Requests
	// that could not be applied appear here AND in Rejected.
	Events []string
	// DetectionDelaySec and ReconfigDelaySec are the control-plane timing
	// model used (plan overrides applied). Units: seconds of simulated time.
	DetectionDelaySec float64
	ReconfigDelaySec  float64
	// Rejected lists events that could not be applied ("event: reason") —
	// unknown chain names, duplicate admissions, or admissions the placer
	// answered with full-repack/infeasible (the simulator never applies a
	// disruptive repack mid-run; that is an operator decision).
	Rejected []string
	// RewireSummaries carries each applied reconfiguration's incremental
	// accounting (RewireReport.String()), in landing order.
	RewireSummaries []string
	// AdmittedAtSec is, per chain slot, the simulated time the admitted
	// chain's steering rules landed; < 0 for chains running from the start.
	AdmittedAtSec []float64
	// AdmitLatencySec is, per chain slot, the time from the admission
	// request to the chain's first egressed packet (granularity: one
	// scheduler step); < 0 when not admitted mid-run or nothing egressed.
	AdmitLatencySec []float64
	// RetiredAtSec is, per chain slot, the simulated time the retirement
	// landed (resources reclaimed); < 0 when never retired. The chain's
	// offered load stops at the request, reclaim happens after the
	// detection+reconfig window.
	RetiredAtSec []float64
	// ChurnDrops counts packets lost to the reconfigurations themselves
	// (parked packets orphaned by a rewire). Surviving chains must see zero
	// drops outside the reconfig windows — the property tests pin this.
	ChurnDrops []int
	// Post-churn SLO compliance, measured from the last landed event to the
	// end of the run. Retired chains are trivially compliant (no demand).
	PostWindowSec    float64
	PostAchievedBps  []float64
	PostSLOCompliant []bool
}
