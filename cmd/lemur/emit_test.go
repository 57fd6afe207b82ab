package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lemur"
)

// emitSpec runs on two servers and the SmartNIC: the FastEncrypt chain
// offloads to the NIC, and the two Encrypt chains need more cores than one
// server has.
const emitSpec = `
chain secure {
  slo       { tmin = 8Gbps  tmax = 100Gbps }
  aggregate { src = 10.5.0.0/16 }
  acl = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  fe  = FastEncrypt()
  fwd = IPv4Fwd()
  acl -> fe -> fwd
}
chain vpn1 {
  slo       { tmin = 6Gbps  tmax = 100Gbps }
  aggregate { src = 10.6.0.0/16 }
  enc = Encrypt()
  fwd = IPv4Fwd()
  enc -> fwd
}
chain vpn2 {
  slo       { tmin = 6Gbps  tmax = 100Gbps }
  aggregate { src = 10.7.0.0/16 }
  enc = Encrypt()
  fwd = IPv4Fwd()
  enc -> fwd
}`

// TestEmitDeterministic: emitting a two-server SmartNIC deployment's code
// twice prints byte-identical reports that list the files in name order,
// and leaves every file as the deployment renders it.
func TestEmitDeterministic(t *testing.T) {
	sys := lemur.New(lemur.WithSmartNIC(), lemur.WithServers(2), lemur.WithP4Only("IPv4Fwd"))
	if err := sys.LoadSpec(emitSpec); err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if n, m := len(dep.BESSScripts()), len(dep.EBPFSources()); n < 2 || m < 1 {
		t.Fatalf("deployment renders %d BESS scripts and %d eBPF sources; want two servers and the NIC in use", n, m)
	}
	dir := t.TempDir()
	var first, second bytes.Buffer
	if err := emit(&first, dir, dep); err != nil {
		t.Fatal(err)
	}
	if err := emit(&second, dir, dep); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("two emits printed different reports:\n%s\n---\n%s", first.String(), second.String())
	}
	var paths []string
	for _, line := range strings.Split(first.String(), "\n") {
		if path, ok := strings.CutPrefix(line, "wrote "); ok {
			paths = append(paths, path)
		}
	}
	if !sort.StringsAreSorted(paths) {
		t.Errorf("emit reported files out of name order: %v", paths)
	}
	want := map[string]string{filepath.Join(dir, "unified.p4"): dep.P4Source()}
	for server, script := range dep.BESSScripts() {
		want[filepath.Join(dir, "bess_"+server+".py")] = script
	}
	for name, src := range dep.EBPFSources() {
		want[filepath.Join(dir, "xdp_"+name+".c")] = src
	}
	if len(paths) != len(want) {
		t.Fatalf("emit reported %d files, the deployment renders %d", len(paths), len(want))
	}
	for path, text := range want {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != text {
			t.Errorf("%s is not the deployment's render", path)
		}
	}
}
