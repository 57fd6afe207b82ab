package metacompiler

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lemur/internal/hw"
)

var update = flag.Bool("update", false, "rewrite golden artifact files under testdata/")

// Golden chains: one linear server+switch chain (canonical chain 3) and the
// SmartNIC chain (canonical chain 5), pinned at fixed SLOs so the generated
// artifacts are stable.
const goldenChain3 = `
chain chain3 {
  slo { tmin = 4Gbps  tmax = 100Gbps }
  aggregate { src = 10.3.0.0/16  dst = 172.16.0.0/12 }
  ded3 = Dedup()
  acl3 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  lim3 = Limiter(rate_mbps = 100000)
  lb3  = LB()
  fwd3 = IPv4Fwd()
  ded3 -> acl3 -> lim3 -> lb3 -> fwd3
}`

const goldenChain5 = `
chain chain5 {
  slo { tmin = 10Gbps  tmax = 100Gbps }
  aggregate { src = 10.5.0.0/16  dst = 172.16.0.0/12 }
  acl5 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  url5 = UrlFilter()
  fe5  = FastEncrypt()
  fwd5 = IPv4Fwd()
  acl5 -> url5 -> fe5 -> fwd5
}`

// goldenArtifacts flattens a compile's generated code into (filename, text)
// pairs in deterministic order.
func goldenArtifacts(d *Deployment) map[string]string {
	a := d.Artifacts()
	out := map[string]string{"unified.p4": a.P4Source}
	for server, script := range a.BESSScripts {
		out["bess_"+server+".py"] = script
	}
	for name, src := range a.EBPFSources {
		out["xdp_"+name+".c"] = src
	}
	return out
}

func checkGolden(t *testing.T, name string, d *Deployment) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	got := goldenArtifacts(d)

	if *update {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for file, text := range got {
			if err := os.WriteFile(filepath.Join(dir, file), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("updated %d golden files under %s", len(got), dir)
		return
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("missing goldens (run with -update to create): %v", err)
	}
	want := map[string]bool{}
	for _, e := range entries {
		want[e.Name()] = true
	}
	names := make([]string, 0, len(got))
	for file := range got {
		names = append(names, file)
	}
	sort.Strings(names)
	for _, file := range names {
		if !want[file] {
			t.Errorf("%s: new artifact %s has no golden (run with -update)", name, file)
			continue
		}
		delete(want, file)
		wantText, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if got[file] != string(wantText) {
			t.Errorf("%s: artifact %s drifted from golden (run with -update if intended)\n--- got %d bytes, want %d bytes",
				name, file, len(got[file]), len(wantText))
		}
	}
	for file := range want {
		t.Errorf("%s: golden %s no longer generated", name, file)
	}
}

func TestGoldenArtifactsChain3(t *testing.T) {
	_, d := compileSpec(t, hw.NewPaperTestbed(), goldenChain3)
	checkGolden(t, "golden_chain3", d)
}

func TestGoldenArtifactsChain5SmartNIC(t *testing.T) {
	_, d := compileSpec(t, hw.NewPaperTestbed(hw.WithSmartNIC()), goldenChain5)
	if len(d.Artifacts().EBPFSources) == 0 {
		t.Fatal("SmartNIC chain generated no eBPF sources")
	}
	checkGolden(t, "golden_chain5_smartnic", d)
}

// TestGoldenGenerationDeterministic compiles the same spec twice and
// requires byte-identical artifacts — map-ordering bugs in codegen show up
// here before they show up as flaky golden diffs.
func TestGoldenGenerationDeterministic(t *testing.T) {
	_, d1 := compileSpec(t, hw.NewPaperTestbed(), goldenChain3)
	_, d2 := compileSpec(t, hw.NewPaperTestbed(), goldenChain3)
	a1, a2 := goldenArtifacts(d1), goldenArtifacts(d2)
	if len(a1) != len(a2) {
		t.Fatalf("artifact sets differ: %d vs %d", len(a1), len(a2))
	}
	for file, text := range a1 {
		if a2[file] != text {
			t.Errorf("artifact %s differs between identical compiles", file)
		}
	}
}
