package daemon

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/seed_errors.golden")

// chainSeeds are FuzzChainSpec's seed documents (internal/nfspec), the
// chain text the grammar's fuzzing starts from.
var chainSeeds = func() []string {
	withSLO := func(slo string) string {
		return "chain s {\n  slo { " + slo + " }\n" +
			"  aggregate { src = 10.0.0.0/8 }\n  a = ACL(rules = 4)\n  b = IPv4Fwd()\n  a -> b\n}\n"
	}
	return []string{
		withSLO("tmin = 1Gbps  tmax = 10Gbps  dmax = 45us  dmax_p99 = 80us"),
		withSLO("dmax_p99 = 2ms"),
		withSLO("dmax = 50us  dmax_p99 = 20us"),
		withSLO("dmax = -1us"),
		"chain b {\n  slo { tmin = 2Gbps  tmax = 100Gbps }\n  aggregate { src = 10.0.0.0/8 }\n" +
			"  m = Monitor()\n  n = NAT()\n  m -> [weight = 0.5] n\n}\n",
		"let R = 64\nchain l {\n  aggregate { src = 10.0.0.0/8 }\n  a = ACL(rules = R)\n}\n",
	}
}()

// seedDoc embeds chain text between two chains and after a macro, so that
// an error can come before, inside or after blocks a warm daemon holds.
func seedDoc(t *testing.T, chains string) []byte {
	t.Helper()
	raw, err := json.Marshal(&Spec{
		Chains:    "let W = 2Gbps\n" + chainText("alpha", 2) + "\n" + chains + "\n" + chainText("beta", 2),
		Hardware:  HardwareSpec{Servers: 2},
		Placement: PlacementSpec{HeadroomCores: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSetSpecErrorsWarmMatchCold: every FuzzChainSpec seed, twenty
// byte-mutations of each and a few hand-written edge cases, embedded in a
// daemon document, give the same
// SetSpec verdict to a daemon that has just accepted the unmutated document
// (its chains parsed and kept) as to a fresh one, and both match
// testdata/seed_errors.golden — the verdicts of the whole-document parse
// the per-chain parse replaced, recorded before it.
func TestSetSpecErrorsWarmMatchCold(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const alphabet = "{}[]()\"'#=,-> \nachinlet0sm"
	var got strings.Builder
	for i, seed := range chainSeeds {
		for m := 0; m <= 20; m++ {
			text := []byte(seed)
			if m > 0 {
				for k := 0; k < 1+rng.Intn(3); k++ {
					text[rng.Intn(len(text))] = alphabet[rng.Intn(len(alphabet))]
				}
			}
			doc := seedDoc(t, string(text))

			cold, _ := newTestDaemon(t, nil)
			_, coldErr := cold.SetSpec(doc, "cold")

			warm, _ := newTestDaemon(t, nil)
			if _, err := warm.SetSpec(seedDoc(t, ""), "warm"); err != nil {
				t.Fatal(err)
			}
			warm.SetSpec(seedDoc(t, seed), "warm") // may be rejected: a seed is not always valid
			_, warmErr := warm.SetSpec(doc, "warm")

			verdict := "ok"
			if coldErr != nil {
				verdict = fmt.Sprintf("%q", coldErr.Error())
			}
			fmt.Fprintf(&got, "seed%d mut%02d: %s\n", i, m, verdict)
			if (coldErr == nil) != (warmErr == nil) || coldErr != nil && coldErr.Error() != warmErr.Error() {
				t.Errorf("seed %d mutation %d: cold %v, warm %v\n%s", i, m, coldErr, warmErr, text)
				continue
			}
			if coldErr == nil {
				c, w := cold.desired, warm.desired
				if !reflect.DeepEqual(c.chains, w.chains) || !reflect.DeepEqual(c.fp, w.fp) {
					t.Errorf("seed %d mutation %d: warm and cold parse differ\n%s", i, m, text)
				}
			}
		}
	}
	// What the mutations rarely reach: a repeat of a chain the warm daemon
	// keeps, a broken let after every chain, a brace inside a string that
	// closes a block for the parser but not for the splitter, no chain at all.
	for i, chains := range []string{
		chainText("alpha", 2),
		"let W = [",
		"let W = 1 2",
		`chain q { slo { "}" } m = Monitor() }`,
		`chain q { m = BPF(filter = "}") }`,
		"let X = 1",
		"chain alpha { m = Monitor() }",
	} {
		doc := seedDoc(t, chains)
		cold, _ := newTestDaemon(t, nil)
		_, coldErr := cold.SetSpec(doc, "cold")
		warm, _ := newTestDaemon(t, nil)
		if _, err := warm.SetSpec(seedDoc(t, ""), "warm"); err != nil {
			t.Fatal(err)
		}
		_, warmErr := warm.SetSpec(doc, "warm")
		verdict := "ok"
		if coldErr != nil {
			verdict = fmt.Sprintf("%q", coldErr.Error())
		}
		fmt.Fprintf(&got, "extra%d: %s\n", i, verdict)
		if (coldErr == nil) != (warmErr == nil) || coldErr != nil && coldErr.Error() != warmErr.Error() {
			t.Errorf("extra %d: cold %v, warm %v", i, coldErr, warmErr)
		}
	}

	golden := filepath.Join("testdata", "seed_errors.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for k := range gl {
			if k >= len(wl) || gl[k] != wl[k] {
				t.Fatalf("verdicts differ from %s at line %d:\n got %s\nwant %s", golden, k+1, gl[k], wl[min(k, len(wl)-1)])
			}
		}
		t.Fatalf("verdicts differ from %s in length", golden)
	}
}

// TestSetSpecReusesUnchangedChains: a document that adds one chain and
// redefines another keeps the other chains' parse by pointer and parses only
// the two blocks that changed. A chain that only moved keeps its parse; one
// after a let that changed does not.
func TestSetSpecReusesUnchangedChains(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	doc := func(chains string) []byte {
		raw, err := json.Marshal(&Spec{Chains: chains, Hardware: HardwareSpec{Servers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	set := func(chains string) *validSpec {
		t.Helper()
		if _, err := d.SetSpec(doc(chains), "test"); err != nil {
			t.Fatal(err)
		}
		return d.desired
	}
	a, b, c := chainText("alpha", 2), chainText("beta", 2), chainText("gamma", 2)
	first := set(a + b)
	second := set(a + chainText("beta", 3) + c)
	if second.graphs[0] != first.graphs[0] || second.chains[0] != first.chains[0] || second.topo != first.topo {
		t.Error("the unchanged chain alpha, or the topology, was not kept")
	}
	if second.graphs[1] == first.graphs[1] || second.fp[1] == first.fp[1] {
		t.Error("the redefined chain beta kept its old parse")
	}
	third := set("\n\n" + c + a)
	if third.graphs[0] != second.graphs[2] || third.graphs[1] != second.graphs[0] {
		t.Error("chains that only moved were parsed again")
	}
	fourth := set("let X = 1\n" + c + a)
	if fourth.graphs[0] == third.graphs[0] || fourth.fp[0] != third.fp[0] {
		t.Error("a chain after a new let kept its parse, or fingerprints differently")
	}
	fifth := set("let X = 2\n" + c + a)
	if fifth.graphs[0] == fourth.graphs[0] || fifth.graphs[1] == fourth.graphs[1] {
		t.Error("a chain after a redefined let kept its parse")
	}
}

// graphsInOneSlot fails when a chain graph runs in two slots of the
// deployment: Result.Assign is keyed by node pointer, so a reused graph must
// never alias two slots.
func graphsInOneSlot(t *testing.T, d *Daemon, when string) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.st == nil {
		return
	}
	seen := map[any]int{}
	for si, g := range d.st.in.Chains {
		if prev, ok := seen[g]; ok {
			t.Fatalf("%s: slots %d and %d run the same graph", when, prev, si)
		}
		seen[g] = si
	}
}

// TestNoGraphInTwoSlots drives random admissions, retirements,
// redefinitions and returns to an earlier definition — some accepted without
// a reconcile between them — and asserts after every reconcile that no chain
// graph appears in two slots of the placer input. A second phase has two
// operators race each other's documents while the loop reconciles.
func TestNoGraphInTwoSlots(t *testing.T) {
	pool := []string{"alpha", "beta", "gamma", "delta"}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, _ := newTestDaemon(t, func(c *Config) { c.AllowRepack = true })
		docOf := func() []byte {
			var b strings.Builder
			for _, n := range pool {
				if rng.Intn(3) > 0 {
					b.WriteString(chainText(n, 1+rng.Intn(2)))
				}
			}
			if b.Len() == 0 {
				b.WriteString(chainText(pool[rng.Intn(len(pool))], 1))
			}
			raw, err := json.Marshal(&Spec{Chains: b.String(), Hardware: HardwareSpec{Servers: 2}, Placement: PlacementSpec{HeadroomCores: 4}})
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		for step := 0; step < 40; step++ {
			if _, err := d.SetSpec(docOf(), "test"); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(4) == 0 {
				continue // a second document lands before the loop runs
			}
			d.Tick()
			graphsInOneSlot(t, d, fmt.Sprintf("seed %d step %d", seed, step))
		}

		docs := make([][]byte, 16)
		for i := range docs {
			docs[i] = docOf()
		}
		var wg sync.WaitGroup
		for op := 0; op < 2; op++ {
			wg.Add(1)
			go func(op int) {
				defer wg.Done()
				for i := op; i < len(docs); i += 2 {
					d.SetSpec(docs[i], "race")
				}
			}(op)
		}
		for i := 0; i < 8; i++ {
			d.Tick()
		}
		wg.Wait()
		d.Tick()
		graphsInOneSlot(t, d, fmt.Sprintf("seed %d after racing operators", seed))
	}
}

// costDoc is a desired-state document of the chains c0..c(n-1), the shape
// lemurd's reconcile benchmark admits, on a sixteen-server rack.
func costDoc(t testing.TB, n int) []byte {
	var b strings.Builder
	for id := 0; id < n; id++ {
		fmt.Fprintf(&b, "\nchain c%d {\n  slo { tmin = 500Mbps  tmax = 100Gbps }\n  aggregate { src = 10.%d.0.0/16 }\n"+
			"  mon0 = Monitor()\n  fwd0 = IPv4Fwd()\n  mon0 -> fwd0\n}", id, id%250)
	}
	raw, err := json.Marshal(&Spec{
		Chains:    b.String(),
		Hardware:  HardwareSpec{Servers: 16},
		Placement: PlacementSpec{HeadroomCores: 2, Parallel: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// opAllocs is the heap objects one call of op allocates, averaged over runs,
// each after reset has restored the state op starts from; on one P, counted
// as testing.AllocsPerRun counts.
func opAllocs(runs int, reset, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var total uint64
	for i := 0; i <= runs; i++ {
		reset()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		if i > 0 { // the first call warms up
			total += after.Mallocs - before.Mallocs
		}
	}
	return float64(total) / float64(runs)
}

// TestSetSpecAdmitCostFlatInLiveChains: a document that admits one chain
// costs SetSpec what the new chain costs, not what the document holds. At 5
// and at 60 running chains the admission allocates within ten objects of
// each other; a whole-document parse took it from ~690 to ~7 000.
func TestSetSpecAdmitCostFlatInLiveChains(t *testing.T) {
	cost := func(live int) float64 {
		d, _ := newTestDaemon(t, nil)
		before, after := costDoc(t, live), costDoc(t, live+1)
		if _, err := d.SetSpec(before, "test"); err != nil {
			t.Fatal(err)
		}
		if rr := d.Tick(); !rr.Converged {
			t.Fatalf("%d chains did not converge: %s", live, rr.Err)
		}
		return opAllocs(10, func() {
			if _, err := d.SetSpec(before, "test"); err != nil {
				t.Fatal(err)
			}
		}, func() {
			if _, err := d.SetSpec(after, "test"); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := cost(5), cost(60)
	t.Logf("one-chain admit SetSpec: %.0f objects at 5 live chains, %.0f at 60", small, large)
	if large > small+10 {
		t.Errorf("a one-chain admission allocates %.0f objects at 60 live chains, %.0f at 5: SetSpec cost grows with the document", large, small)
	}
}
