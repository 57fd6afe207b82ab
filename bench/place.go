package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"lemur"
	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/lp"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/profile"
	"lemur/internal/runtime"
)

// The placement matrix: the placement-scale study's chain sets (rich
// pattern spaces, and repeated chains for the symmetry collapse) x the
// delta points where placements go from roomy to tight x three fleet sizes
// = 45 inputs, each placed by the five cheap schemes; Optimal places the 15
// inputs at delta = 1.0 only. Its solve time hardly moves with delta
// (290/282/243 ms on the costliest input) and at all three it would be nine
// tenths of a pass and leave room for two passes in a run. 240 Place calls a
// pass; the costly Optimal cells are 2.5 % of them, so they set op_ms_tail.
var (
	placeSets    = [][]int{{1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {2, 2, 3, 3}, {1, 1, 2, 2}}
	placeDeltas  = []float64{0.5, 1.0, 1.5}
	placeFleets  = []int{4, 16, 64}
	optimalDelta = 1.0
)

// verifyFrames is how many frames per chain walk every compiled placement.
const verifyFrames = 50

// placeCell is one (fleet, chain set, delta) input; each scheme places it.
type placeCell struct {
	in    *placer.Input
	delta float64
	desc  string
}

// placeJob is one Place call of a pass.
type placeJob struct {
	cell   int
	scheme placer.Scheme
}

// placeWorkload holds no inputs: every pass builds its own, so that a pass
// pays for parsing, graph building and the placer's per-input preparation
// the way an experiment run does, and no pass inherits another's memos.
type placeWorkload struct {
	seed int64
}

// buildCells builds the inputs of the matrix restricted to deltas.
func buildCells(deltas []float64, tr *tracer) ([]placeCell, error) {
	db := profile.DefaultDB()
	var cells []placeCell
	for _, servers := range placeFleets {
		// As in the placement-scale study, large fleets scale the ToR
		// pipeline so switch stages do not gate them.
		scale := 1
		if servers >= 64 {
			scale = servers / 32
		}
		topo := hw.NewPaperTestbed(hw.WithServers(servers), hw.WithSwitchScale(scale))
		for _, set := range placeSets {
			bases, err := experiments.BaseRates(set, topo, db)
			if err != nil {
				return nil, err
			}
			for _, delta := range deltas {
				// One parse per chain: a set may hold a chain twice, and
				// one spec text cannot name two chains alike.
				var graphs []*nfgraph.Graph
				for i, idx := range set {
					s, err := experiments.ChainSpec(idx, delta*bases[i], hw.Gbps(100), 0)
					if err != nil {
						return nil, err
					}
					g, err := buildGraphs(s, tr)
					if err != nil {
						return nil, err
					}
					graphs = append(graphs, g...)
				}
				cells = append(cells, placeCell{
					in: &placer.Input{Chains: graphs, Topo: topo, DB: db, Restrict: experiments.EvalRestrict,
						BruteForceBudget: 2000, Parallel: 1},
					delta: delta,
					desc:  fmt.Sprintf("%d servers, chains %v, delta %.1f", servers, set, delta),
				})
			}
		}
	}
	return cells, nil
}

func (w *placeWorkload) setup(seed int64) error {
	w.seed = seed
	// Warm-up: every cell once with the five cheap schemes, compiled and
	// verified. Optimal is left out because one sweep of it takes longer
	// than the rest of set-up together; its code paths are the Lemur
	// scheme's plus the search.
	r, _, err := w.pass(placeDeltas, false, nil)
	if err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("warm-up pass: %s", strings.Join(r.notes, "; "))
	}
	return nil
}

// shuffledJobs lists a pass's Place calls in the seed's order: the matrix
// is fixed (it is the evaluation grid), the seed decides the order, and
// with it what the compile cache and the heap hold at each call, and the
// frames that verify each placement.
func shuffledJobs(cells []placeCell, optimal bool, seed int64) []placeJob {
	var jobs []placeJob
	for c, cell := range cells {
		for _, s := range placer.Schemes() {
			if s != placer.SchemeOptimal || (optimal && cell.delta == optimalDelta) {
				jobs = append(jobs, placeJob{c, s})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

func (w *placeWorkload) rep() (repResult, error) {
	r, _, err := w.pass(placeDeltas, true, nil)
	return r, err
}

// cellOutcome is what one job leaves for the digest and the sums.
type cellOutcome struct {
	Feasible  bool
	Marginal  float64
	Stages    int
	Evaluated int
	visited   int
	combos    float64
}

// pass builds the inputs at deltas, then places, compiles and verifies
// them in the seed's order, with Optimal or without. It starts from an empty
// PISA compile cache and fresh inputs, so every pass pays the same share of
// misses and hits and passes are comparable with each other.
func (w *placeWorkload) pass(deltas []float64, optimal bool, tr *tracer) (repResult, map[placeJob]cellOutcome, error) {
	pisa.SharedCache().Reset()
	cells, err := buildCells(deltas, tr)
	if err != nil {
		return repResult{}, nil, err
	}
	jobs := shuffledJobs(cells, optimal, w.seed)
	r := repResult{work: float64(len(jobs))}
	outcomes := make(map[placeJob]cellOutcome, len(jobs))
	for _, j := range jobs {
		c := cells[j.cell]
		r.attempted++
		tr.begin("placer." + string(j.scheme))
		t0 := time.Now()
		res, err := placer.Place(j.scheme, c.in)
		r.opsMs = append(r.opsMs, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end()
		if err != nil {
			r.fail("%s, %s: %v", c.desc, j.scheme, err)
			continue
		}
		o := cellOutcome{Feasible: res.Feasible, Marginal: res.Marginal, Stages: res.Stages}
		if st := res.Search; st != nil {
			o.Evaluated, o.visited, o.combos = st.Evaluated, st.Visited(), st.Combinations
		}
		outcomes[j] = o
		if !res.Feasible {
			continue // an infeasible cell is a result, not a failure
		}
		tr.begin("metacompiler.compile")
		d, err := metacompiler.Compile(c.in, res)
		tr.end()
		if err != nil {
			r.fail("%s, %s: feasible placement does not compile: %v", c.desc, j.scheme, err)
			continue
		}
		tr.begin("runtime.verify")
		stats, err := runtime.New(d, w.seed).Verify(verifyFrames)
		tr.end()
		if err != nil || stats.Errors > 0 {
			r.fail("%s, %s: verify walk: %v", c.desc, j.scheme, err)
		}
	}
	// Sum and hash in matrix order, so the numbers do not depend on the
	// seed's job order.
	var ordered []cellOutcome
	feasible := 0
	for c := range cells {
		for _, s := range placer.Schemes() {
			o, ok := outcomes[placeJob{c, s}]
			if !ok {
				continue
			}
			ordered = append(ordered, o)
			if o.Feasible {
				feasible++
				r.gbps += o.Marginal / 1e9
			}
		}
	}
	if len(ordered) > 0 {
		r.sloMet = float64(feasible) / float64(len(ordered))
	}
	r.digest = digestOf(ordered)
	return r, outcomes, nil
}

func (w *placeWorkload) close() {}

// quickstart is the chain of examples/quickstart.
const quickstart = `
chain border {
  slo       { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8  dst = 172.16.0.0/12 }
  acl0 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}`

// facadeDeploy is what a first-time user of the root package does.
func facadeDeploy() error {
	sys := lemur.New(lemur.WithP4Only("IPv4Fwd"))
	if err := sys.LoadSpec(quickstart); err != nil {
		return err
	}
	dep, err := sys.Deploy()
	if err != nil {
		return err
	}
	rep, err := dep.SendPackets(100)
	if err != nil {
		return err
	}
	if rep.Egressed != rep.Injected {
		return fmt.Errorf("quickstart walk: %d of %d frames egressed", rep.Egressed, rep.Injected)
	}
	return nil
}

// traced runs the delta = 1.0 third of the matrix once untraced and once
// under spans, and times the layers a Place call hides (LP, PISA compiler)
// on fixed inputs of their own.
func (w *placeWorkload) traced(tr *tracer, out io.Writer) (map[string]float64, checks, error) {
	var c checks
	layers := map[string]float64{}

	traceDeltas := []float64{optimalDelta}
	t0 := time.Now()
	plain, _, err := w.pass(traceDeltas, true, nil)
	if err != nil {
		return nil, c, err
	}
	plainWall := time.Since(t0)
	c.add(plain.checks)

	tr.begin("harness.pass")
	t0 = time.Now()
	spanned, outcomes, err := w.pass(traceDeltas, true, tr)
	tracedWall := time.Since(t0)
	tr.end()
	if err != nil {
		return nil, c, err
	}
	c.add(spanned.checks)
	if spanned.digest != plain.digest {
		c.fail("traced pass outcomes differ from the untraced pass's")
	}
	layers["trace.overhead_ratio"] = tracedWall.Seconds() / plainWall.Seconds()
	layers["pisa.cache_hit_ratio"] = pisa.SharedCache().Stats().HitRate()

	evaluated, optimal, prunedSum, feasible := 0, 0, 0.0, 0
	for j, o := range outcomes {
		if o.Feasible {
			feasible++
		}
		if j.scheme == placer.SchemeOptimal && o.combos > 0 {
			optimal++
			evaluated += o.Evaluated
			prunedSum += 1 - float64(o.visited)/o.combos
		}
	}
	layers["placer.optimal.combos_evaluated"] = float64(evaluated)
	if optimal > 0 {
		layers["placer.optimal.pruned_ratio"] = prunedSum / float64(optimal)
	}
	layers["placer.feasible_ratio"] = float64(feasible) / float64(len(outcomes))

	// The LP on the fixed 20 x 30 problem of lp's own benchmark, and the
	// PISA compiler on the tables of one four-chain placement.
	prob := lpProblem()
	for i := 0; i < 200; i++ {
		tr.begin("lp.solve")
		_, err := lp.Solve(prob)
		tr.end()
		if err != nil {
			return nil, c, err
		}
	}
	spec, tables, err := switchTables()
	if err != nil {
		return nil, c, err
	}
	for i := 0; i < 200; i++ {
		tr.begin("pisa.compile")
		_, err := pisa.Compile(spec, tables)
		tr.end()
		if err != nil {
			return nil, c, err
		}
	}
	for i := 0; i < 30; i++ {
		c.attempted++
		tr.begin("lemur.deploy")
		err := facadeDeploy()
		tr.end()
		if err != nil {
			c.fail("facade deploy: %v", err)
		}
	}

	med := spanMedians(tr)
	layers["nfspec.parse_us"] = med["nfspec.parse"] / 1e3
	layers["nfgraph.build_us"] = med["nfgraph.build"] / 1e3
	for _, s := range placer.Schemes() {
		layers["placer."+string(s)+".place_ms"] = med["placer."+string(s)] / 1e6
	}
	layers["metacompiler.compile_ms"] = med["metacompiler.compile"] / 1e6
	layers["runtime.verify_ms"] = med["runtime.verify"] / 1e6
	layers["lp.solve_us"] = med["lp.solve"] / 1e3
	layers["pisa.compile_us"] = med["pisa.compile"] / 1e3
	layers["lemur.deploy_ms_p50"] = med["lemur.deploy"] / 1e6

	rows, total := tr.attribution()
	printAttribution(out, ctlPlace, rows, total)
	return layers, c, nil
}

// lpProblem is the 20-variable, 30-constraint problem of lp's
// BenchmarkSolve20x30.
func lpProblem() lp.Problem {
	rng := rand.New(rand.NewSource(5))
	n, m := 20, 30
	p := lp.Problem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
	for j := range p.C {
		p.C[j] = rng.Float64()
	}
	for i := range p.A {
		p.A[i] = make([]float64, n)
		for j := range p.A[i] {
			p.A[i][j] = rng.Float64()
		}
		p.B[i] = 5 + rng.Float64()*10
	}
	return p
}

// switchTables lowers the Lemur placement of the first four-chain cell to
// the PISA compiler's input.
func switchTables() (*hw.PISASpec, []pisa.LogicalTable, error) {
	cells, err := buildCells([]float64{optimalDelta}, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range cells {
		if len(c.in.Chains) != 4 {
			continue
		}
		res, err := placer.Place(placer.SchemeLemur, c.in)
		if err != nil {
			return nil, nil, err
		}
		if !res.Feasible {
			continue
		}
		assigns := make([]map[*nfgraph.Node]placer.Assign, len(c.in.Chains))
		for i := range assigns {
			assigns[i] = res.Assign
		}
		return c.in.Topo.Switch, placer.BuildSwitchTables(c.in, assigns, true), nil
	}
	return nil, nil, fmt.Errorf("no feasible four-chain cell to take switch tables from")
}
