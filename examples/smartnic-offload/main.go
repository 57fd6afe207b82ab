// SmartNIC offload (the Figure 3b scenario): a chain with ChaCha encryption
// ("FastEncrypt") cannot meet a high SLO on server cores — the NF is not
// replicable — but the eBPF SmartNIC runs it 10x faster, so Lemur offloads
// it and the chain approaches the NIC's 40G line rate. The example also
// prints the generated XDP program.
package main

import (
	"fmt"
	"log"
	"sort"

	"lemur"
)

const spec = `
chain secure {
  slo       { tmin = 8Gbps  tmax = 100Gbps }
  aggregate { src = 10.5.0.0/16 }
  acl = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  url = UrlFilter()
  fe  = FastEncrypt()
  fwd = IPv4Fwd()
  acl -> url -> fe -> fwd
}`

func main() {
	// Without the SmartNIC: one ChaCha core tops out below 6 Gbps.
	plain := lemur.New(lemur.WithP4Only("IPv4Fwd"))
	if err := plain.LoadSpec(spec); err != nil {
		log.Fatal(err)
	}
	pl, err := plain.Place()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("server-only topology:")
	fmt.Print(pl.Summary())

	// With the SmartNIC: Lemur offloads FastEncrypt to eBPF.
	nic := lemur.New(lemur.WithSmartNIC(), lemur.WithP4Only("IPv4Fwd"))
	if err := nic.LoadSpec(spec); err != nil {
		log.Fatal(err)
	}
	pl2, err := nic.Place()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith a 40G eBPF SmartNIC:")
	fmt.Print(pl2.Summary())
	if !pl2.Feasible() {
		log.Fatal("expected a feasible placement with the SmartNIC")
	}

	dep, err := nic.Deploy()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := dep.SendPackets(500)
	if err != nil {
		log.Fatal(err)
	}
	m, err := dep.Measure()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntraffic: %d/%d egressed; achieved %.2f Gbps (NIC line rate is 40)\n",
		rep.Egressed, rep.Injected, m.AggregateBps/1e9)

	srcs := dep.EBPFSources()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("\ngenerated XDP program %s:\n%s", name, srcs[name])
	}
}
