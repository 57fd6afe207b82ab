package placer

import (
	"fmt"
	"slices"
	"sort"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
)

// Candidate evaluation. Every scheme scores a placement by the same back
// half — stage check, core allocation, latency check, rate LP, tail-latency
// check — and the search schemes score thousands of candidates to keep one.
// So a candidate is evaluated on an evalScratch, memory a Place call owns
// and reuses, from per-chain templates computed once; a heap Result is
// materialised only for a candidate that displaces the best so far.

// unassigned is the dense assignment's mark for a node without an
// assignment (a retired chain's nodes).
const unassigned hw.Platform = -1

// chainTemplate is everything evaluation needs that depends only on one
// chain's per-node platform choice: computed once per pattern (Optimal) or
// per coalescing variant (the heuristic), stamped with a server per
// evaluation. Read-only after build, shared by concurrent evaluations.
type chainTemplate struct {
	assign []Assign        // by Node.Seq; server nodes carry no device yet
	pisa   string          // the chain's stretch of the stage-memo key
	subs   [2][]*Subgroup  // [unsplit, split]; subs[1] nil when there are no marks
	breaks []*nfgraph.Node // the split variant's break marks
	nics   []*NICUse
	demand int // t_min core demand of the unsplit subgroups, as server binding projects it
}

// newChainTemplate derives chain ci's template from an assignment whose
// server nodes are not yet bound to a device (a chain binds whole to one
// server, so its subgroup structure does not depend on which).
func newChainTemplate(in *Input, ci int, g *nfgraph.Graph, assign map[*nfgraph.Node]Assign) *chainTemplate {
	t := &chainTemplate{assign: make([]Assign, len(g.Order))}
	key := make([]byte, len(g.Order))
	onServer := 0
	for i, n := range g.Order {
		a, ok := assign[n]
		if !ok {
			a.Platform = unassigned
		}
		if a.Platform == hw.Server {
			onServer++
		}
		t.assign[i], key[i] = a, stageKeyByte(a.Platform)
	}
	t.pisa = string(key)
	// Both variants' subgroups and node lists come from one slab, which the
	// template keeps alive and evaluations only read (evaluate stamps copies;
	// a winner's are copied again by materialise).
	var slab subgroupSlab
	slab.reserve(2 * onServer)
	t.subs[0] = slab.split(in, ci, g, assign, nil)
	t.nics = computeNICUses(in, ci, g, assign)
	if t.breaks = splitMarks(t.subs[0]); len(t.breaks) > 0 {
		marks := make(map[*nfgraph.Node]bool, len(t.breaks))
		for _, n := range t.breaks {
			marks[n] = true
		}
		t.subs[1] = slab.split(in, ci, g, assign, marks)
	}
	t.demand = in.tminDemand(g, t.subs[0])
	return t
}

// tminDemand projects the cores a chain's subgroups need to carry its t_min:
// what both server binders (bindServers, bindReplaced) rank chains by.
func (in *Input) tminDemand(g *nfgraph.Graph, subs []*Subgroup) int {
	demand := 0
	for _, sg := range subs {
		if sg.Replicable {
			demand += in.coresToMeet(sg, g.Chain.SLO.TMinBps)
		} else {
			demand++
		}
	}
	return demand
}

// candidate is one placement to evaluate: a template per chain and the
// index in Topo.Servers of the server each chain is bound to (-1 for a
// chain the binder left alone because it has no server nodes).
type candidate struct {
	tmpls []*chainTemplate
	srv   []int
}

// newCandidate builds the templates of a whole-input assignment and binds
// its chains to servers.
func newCandidate(in *Input, assign map[*nfgraph.Node]Assign) candidate {
	c := candidate{tmpls: make([]*chainTemplate, len(in.Chains))}
	for ci, g := range in.Chains {
		c.tmpls[ci] = newChainTemplate(in, ci, g, assign)
	}
	c.srv = bindServers(in, c.tmpls)
	return c
}

// bindServers chooses a server for every chain. Chains are kept whole on
// one server (subgroup coalescing and run-to-completion both assume it) and
// spread across servers by projected core demand, most demanding first onto
// the server with the most cores left.
func bindServers(in *Input, tmpls []*chainTemplate) []int {
	srv := make([]int, len(tmpls))
	if len(in.Topo.Servers) == 1 {
		return srv
	}
	type demand struct{ chain, cores int }
	demands := make([]demand, len(tmpls))
	for ci, t := range tmpls {
		demands[ci] = demand{ci, t.demand}
	}
	sort.Slice(demands, func(i, j int) bool { return demands[i].cores > demands[j].cores })
	remaining := append([]int(nil), in.prep.srvCores...)
	for _, d := range demands {
		best := 0
		for o, rem := range remaining {
			if rem > remaining[best] {
				best = o
			}
		}
		srv[d.chain] = best
		remaining[best] -= d.cores
	}
	return srv
}

// evalScratch is one evaluation slot's working memory: the candidate in
// dense form, the Result under evaluation, the core ledger and the LP rows.
// A Place call owns its scratches; Reconfigure takes its prep family's (see
// takeScratch), which outlives the call but serves one call at a time.
// Nothing here is shared by two calls at once, and a Result handed to the
// caller never aliases it (see materialise).
type evalScratch struct {
	in *Input
	p  *inputPrep

	// assign is the dense assignment, indexed p.base[ci]+n.Seq; key is the
	// stage-memo key over it. res is the Result under evaluation: &own for
	// a stamped candidate, whose subgroups and NIC uses live in the slabs;
	// a heap Result whose (partly pinned) subgroups are heap values for
	// the incremental calls.
	assign  []Assign
	key     []byte
	res     *Result
	own     Result
	slab    []Subgroup
	nicSlab []NICUse
	breaks  []*nfgraph.Node

	// The core ledger: srvOf is each res.Subgroups entry's index in
	// Topo.Servers and used the cores charged per server (budgets are
	// p.srvCores). adds and bestAdds are allocateCores' subgroup-index
	// buffers; fresh marks, per res.Subgroups entry, the subgroups the
	// pinned policy may write (assembleReplace fills it).
	srvOf, used, adds, bestAdds []int
	fresh                       []bool

	// The rate LP: cols maps a chain slot to its column (-1 retired; empty,
	// the identity, when no slot is retired) and ncols counts the columns;
	// rows are carved from flat and reused, x receives the solution, tmin is
	// the t_min vector gathered by column when a slot is retired.
	cols     []int
	ncols    int
	flat     []float64
	flatUsed int
	lpA      [][]float64
	lpB, x   []float64
	tmin     []float64
	links    []lpLink

	// short is set when the candidate failed in raiseToTMin: the refusal,
	// which reason puts into words if anyone asks.
	short tminShortfall

	// A stage-memo miss's working memory: the candidate's logical tables
	// with their dependency lists, and the compile cache's key for them.
	// Both are dead once the verdict is stored.
	tables     tableBuf
	compileKey []byte

	// checkTailLatency's node-to-subgroup index and per-path visit stamps:
	// seen[si] is the number (pathNo) of the last path that counted si.
	subOf, seen []int
	pathNo      int
}

// newEvalScratch is a scratch of the caller's own, bound to in (see
// takeScratch for the one its prep family keeps).
func newEvalScratch(in *Input) *evalScratch { return new(evalScratch).bind(in) }

// bind points the scratch at in, whose prep is installed, and sizes the
// dense assignment and the stage key for it; the rest of the scratch is
// resized where it is used.
func (ev *evalScratch) bind(in *Input) *evalScratch {
	ev.in, ev.p = in, in.prep
	n := len(ev.p.nodes)
	ev.assign, ev.key = room(ev.assign, n)[:n], room(ev.key, n)[:n]
	return ev
}

// room returns s emptied, with capacity for n: s itself when it has it,
// else exactly n for a first use and twice n for a regrowth — a family's
// scratch regrows as admissions lengthen its chain set a chain at a time.
func room[T any](s []T, n int) []T {
	switch {
	case cap(s) >= n:
		return s[:0]
	case s == nil:
		return make([]T, 0, n)
	}
	return make([]T, 0, 2*n)
}

func stageKeyByte(p hw.Platform) byte {
	if p == hw.PISA {
		return 'p'
	}
	return '.'
}

// evaluate stamps variant (0 unsplit, 1 split) of the candidate's templates
// with their servers into the scratch and runs the common back half. The
// verdict is left in ev.res.
func (ev *evalScratch) evaluate(c *candidate, variant int, policy allocPolicy) {
	p, servers := ev.p, ev.in.Topo.Servers
	ev.slab, ev.nicSlab, ev.breaks, ev.srvOf = ev.slab[:0], ev.nicSlab[:0], ev.breaks[:0], ev.srvOf[:0]
	for ci, t := range c.tmpls {
		name := ""
		if c.srv[ci] >= 0 {
			name = servers[c.srv[ci]].Name
		}
		base := p.base[ci]
		copy(ev.key[base:], t.pisa)
		for i, a := range t.assign {
			if a.Platform == hw.Server {
				a.Device = name
			}
			ev.assign[base+i] = a
		}
		subs := t.subs[0]
		if variant == 1 && t.subs[1] != nil {
			subs = t.subs[1]
			ev.breaks = append(ev.breaks, t.breaks...)
		}
		for _, sg := range subs {
			ev.slab = append(ev.slab, *sg)
			ev.slab[len(ev.slab)-1].Server = name
			ev.srvOf = append(ev.srvOf, c.srv[ci])
		}
		for _, u := range t.nics {
			ev.nicSlab = append(ev.nicSlab, *u)
		}
	}
	res := &ev.own
	*res = Result{Subgroups: res.Subgroups[:0], NICUses: res.NICUses[:0],
		ChainRates: res.ChainRates[:0], PredictedP99Sec: res.PredictedP99Sec[:0]}
	for i := range ev.slab {
		res.Subgroups = append(res.Subgroups, &ev.slab[i])
	}
	for i := range ev.nicSlab {
		res.NICUses = append(res.NICUses, &ev.nicSlab[i])
	}
	ev.res = res
	ev.finish(policy)
}

// adopt points the scratch at a heap Result the caller assembled (its
// Assign map, Subgroups and NICUses set): the dense assignment and the
// ledger's server indices are derived from it. An unknown server name is
// the reason returned.
func (ev *evalScratch) adopt(res *Result) (string, bool) {
	ev.res = res
	ev.load(res.Assign)
	ev.srvOf = slices.Grow(ev.srvOf[:0], len(res.Subgroups))
	for _, sg := range res.Subgroups {
		o, ok := ev.p.srvOrd[sg.Server]
		if !ok {
			return fmt.Sprintf("%v: server %q", hw.ErrNotFound, sg.Server), false
		}
		ev.srvOf = append(ev.srvOf, o)
	}
	return "", true
}

// finishResult is finish for a heap Result the caller assembled: the way
// through the back half for everything that is not a stamped candidate
// (SW-Preferred's whole-chain groups, Reconfigure, ReEvaluate).
// res ends up feasible or carrying the first infeasibility reason.
func (ev *evalScratch) finishResult(res *Result, policy allocPolicy) {
	if reason, ok := ev.adopt(res); !ok {
		res.Reason = reason
		return
	}
	ev.finish(policy)
	res.Reason = ev.reason()
}

// load fills the dense assignment and the stage key from a map.
func (ev *evalScratch) load(assign map[*nfgraph.Node]Assign) {
	for i, n := range ev.p.nodes {
		a, ok := assign[n]
		if !ok {
			a.Platform = unassigned
		}
		ev.assign[i], ev.key[i] = a, stageKeyByte(a.Platform)
	}
}

// assignMap renders the dense assignment as a map.
func (ev *evalScratch) assignMap() map[*nfgraph.Node]Assign {
	m := make(map[*nfgraph.Node]Assign, len(ev.assign))
	for i, n := range ev.p.nodes {
		if a := ev.assign[i]; a.Platform != unassigned {
			m[n] = a
		}
	}
	return m
}

// finish runs the common back half on the scratch: check switch stages,
// allocate cores, check latency SLOs, solve the rate LP and check the tail
// latency. ev.res ends up either feasible with rates filled in or carrying
// the first infeasibility reason. It is the only sequencing of those steps:
// every Result the package hands out — Place under any scheme, Reconfigure,
// ReEvaluate — left through here, and callers differ only in the policy
// that chooses cores, so none can leave an SLO check out. One reason is left
// unrendered (see tminShortfall), so an infeasible candidate's is read
// through reason, not from res.
func (ev *evalScratch) finish(policy allocPolicy) {
	res := ev.res
	ev.short = tminShortfall{}
	reason, ok := ev.stageCheck()
	if ok {
		reason, ok = ev.allocateCores(policy)
	}
	if ok {
		reason, ok = ev.checkLatency()
	}
	if ok {
		reason, ok = ev.solveRates()
	}
	if ok {
		if reason, ok = ev.checkTailLatency(); !ok {
			// solveRates already filled the rate summary; an infeasible Result
			// must not carry stale rates (see TestPlaceInfeasibleReasons).
			// Truncating serves both kinds of Result: the scratch's own keeps
			// its capacity, a heap one reads as empty.
			res.Marginal, res.PredictedAggregate = 0, 0
			res.ChainRates, res.PredictedP99Sec = res.ChainRates[:0], res.PredictedP99Sec[:0]
		}
	}
	res.Reason, res.Feasible = reason, ok
}

// reason is the evaluated candidate's infeasibility reason ("" when it is
// feasible).
func (ev *evalScratch) reason() string {
	if ev.short.sg != nil {
		return ev.short.String()
	}
	return ev.res.Reason
}

// materialise copies the evaluated candidate out of the scratch into a heap
// Result that shares no memory with it: a fresh Assign map, fresh Subgroups
// and NICUses, fresh rate slices. The reduce calls it only for a candidate
// that displaces the best so far, so losers cost no heap at all.
func (ev *evalScratch) materialise() *Result {
	src := ev.res
	out := *src
	out.Reason = ev.reason()
	out.Assign = ev.assignMap()
	out.Breaks = nil
	if len(ev.breaks) > 0 {
		out.Breaks = make(map[*nfgraph.Node]bool, len(ev.breaks))
		for _, n := range ev.breaks {
			out.Breaks[n] = true
		}
	}
	out.Subgroups, out.NICUses = nil, nil
	if len(src.Subgroups) > 0 {
		total := 0
		for _, sg := range src.Subgroups {
			total += len(sg.Nodes)
		}
		subs, nodes := make([]Subgroup, len(src.Subgroups)), make([]*nfgraph.Node, 0, total)
		out.Subgroups = make([]*Subgroup, len(subs))
		for i, sg := range src.Subgroups {
			subs[i] = *sg
			from := len(nodes)
			nodes = append(nodes, sg.Nodes...)
			subs[i].Nodes = nodes[from:len(nodes):len(nodes)]
			out.Subgroups[i] = &subs[i]
		}
	}
	if len(src.NICUses) > 0 {
		uses := make([]NICUse, len(src.NICUses))
		out.NICUses = make([]*NICUse, len(uses))
		for i, u := range src.NICUses {
			uses[i] = *u
			out.NICUses[i] = &uses[i]
		}
	}
	out.ChainRates = append([]float64(nil), src.ChainRates...)
	out.PredictedP99Sec = append([]float64(nil), src.PredictedP99Sec...)
	return &out
}

// candSlot is one candidate's place in a parallel evaluation round: the
// candidate, a scratch per variant (made on first use, reused by later
// rounds), and how many variants the last evaluation ran.
type candSlot struct {
	cand candidate
	ev   [2]*evalScratch
	n    int
}

// evaluateCandidate evaluates the slot's candidate without split marks
// and, when any chain has marks, with them (non-replicable NFs in subgroups
// of their own, trading a bounce for core scalability, §5.3).
func evaluateCandidate(in *Input, s *candSlot, policy allocPolicy) {
	s.n = 1
	for _, t := range s.cand.tmpls {
		if len(t.breaks) > 0 {
			s.n = 2
		}
	}
	for v := 0; v < s.n; v++ {
		if s.ev[v] == nil {
			s.ev[v] = newEvalScratch(in)
		}
		s.ev[v].evaluate(&s.cand, v, policy)
	}
}

// reduce folds the slot's evaluations into best with the serial sweep's
// tie-break (a later candidate must win by more than 1e-6), reporting each
// infeasible evaluation to note — which asks it for its reason only if it
// means to keep it — and each feasible marginal to feasible (nil to ignore).
// Callers reduce slots in enumeration order.
func (s *candSlot) reduce(best **Result, note func(ev *evalScratch), feasible func(marginal float64)) {
	for _, ev := range s.ev[:s.n] {
		res := ev.res
		if !res.Feasible {
			note(ev)
			continue
		}
		if *best == nil || res.Marginal > (*best).Marginal+1e-6 {
			*best = ev.materialise()
		}
		if feasible != nil {
			feasible(res.Marginal)
		}
	}
}
