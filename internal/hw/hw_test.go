package hw

import (
	"errors"
	"strings"
	"testing"
)

func TestPaperTestbedValid(t *testing.T) {
	tb := NewPaperTestbed()
	if err := tb.Validate(); err != nil {
		t.Fatalf("paper testbed invalid: %v", err)
	}
	if got := tb.Servers[0].TotalCores(); got != 16 {
		t.Errorf("total cores = %d, want 16 (dual-socket 8-core)", got)
	}
	if got := tb.Servers[0].WorkerCores(); got != 15 {
		t.Errorf("worker cores = %d, want 15 (one reserved for demux)", got)
	}
	if tb.Switch.Stages != 12 {
		t.Errorf("stages = %d, want 12", tb.Switch.Stages)
	}
	if tb.Servers[0].NICs[0].CapacityBps != Gbps(40) {
		t.Errorf("NIC capacity = %v", tb.Servers[0].NICs[0].CapacityBps)
	}
}

func TestTestbedOptions(t *testing.T) {
	tb := NewPaperTestbed(WithServers(2), WithSmartNIC(), WithOpenFlowSwitch())
	if err := tb.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(tb.Servers) != 2 {
		t.Fatalf("servers = %d, want 2", len(tb.Servers))
	}
	if tb.Servers[0].Name == tb.Servers[1].Name {
		t.Error("duplicate server names")
	}
	if len(tb.SmartNICs) != 1 || tb.SmartNICs[0].HostServer != tb.Servers[0].Name {
		t.Errorf("smartnic attach wrong: %+v", tb.SmartNICs)
	}
	if tb.OFSwitch == nil || len(tb.OFSwitch.TableOrder) == 0 {
		t.Error("openflow switch missing")
	}
	// NICs must not be shared across cloned servers.
	tb.Servers[0].NICs[0].CapacityBps = 1
	if tb.Servers[1].NICs[0].CapacityBps == 1 {
		t.Error("cloned servers share NIC slice")
	}
}

func TestSingleSocket(t *testing.T) {
	tb := NewPaperTestbed(WithSingleSocket())
	if got := tb.Servers[0].TotalCores(); got != 8 {
		t.Errorf("single-socket cores = %d, want 8", got)
	}
	if got := tb.Servers[0].WorkerCores(); got != 7 {
		t.Errorf("worker cores = %d, want 7", got)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Topology)
		frag   string
	}{
		{"no switch", func(tb *Topology) { tb.Switch = nil }, "no PISA switch"},
		{"zero stages", func(tb *Topology) { tb.Switch.Stages = 0 }, "stages"},
		{"no servers", func(tb *Topology) { tb.Servers = nil }, "no servers"},
		{"no cores", func(tb *Topology) { tb.Servers[0].ReservedCores = 99 }, "no worker cores"},
		{"zero clock", func(tb *Topology) { tb.Servers[0].ClockHz = 0 }, "clock"},
		{"no nics", func(tb *Topology) { tb.Servers[0].NICs = nil }, "no NICs"},
		{"bad socket", func(tb *Topology) { tb.Servers[0].NICs[0].Socket = 5 }, "socket"},
		{"zero nic capacity", func(tb *Topology) { tb.Servers[0].NICs[0].CapacityBps = 0 }, "capacity"},
		{"dup servers", func(tb *Topology) {
			s := *tb.Servers[0]
			tb.Servers = append(tb.Servers, &s)
		}, "duplicate"},
		{"orphan smartnic", func(tb *Topology) {
			tb.SmartNICs = append(tb.SmartNICs, &SmartNICSpec{Name: "x", HostServer: "nope", SpeedupVsServerCore: 10})
		}, "smartnic"},
		{"zero speedup", func(tb *Topology) {
			tb.SmartNICs = append(tb.SmartNICs, &SmartNICSpec{Name: "x", HostServer: tb.Servers[0].Name})
		}, "speedup"},
		{"dup smartnics", func(tb *Topology) {
			nic := SmartNICSpec{Name: "x", HostServer: tb.Servers[0].Name, SpeedupVsServerCore: 10}
			other := nic
			tb.SmartNICs = append(tb.SmartNICs, &nic, &other)
		}, "duplicate smartnic"},
		{"smartnic named like a server", func(tb *Topology) {
			tb.SmartNICs = append(tb.SmartNICs, &SmartNICSpec{Name: tb.Servers[0].Name, HostServer: tb.Servers[0].Name, SpeedupVsServerCore: 10})
		}, "name of a server"},
	}
	for _, tc := range cases {
		tb := NewPaperTestbed()
		tc.mutate(tb)
		err := tb.Validate()
		if err == nil {
			t.Errorf("%s: Validate passed, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

func TestLookups(t *testing.T) {
	tb := NewPaperTestbed(WithSmartNIC())
	if _, err := tb.ServerByName("nf-server-0"); err != nil {
		t.Errorf("ServerByName: %v", err)
	}
	if _, err := tb.ServerByName("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ServerByName(ghost): %v, want ErrNotFound", err)
	}
	if _, err := tb.SmartNICByName("agilio-cx-40"); err != nil {
		t.Errorf("SmartNICByName: %v", err)
	}
	if _, err := tb.SmartNICByName("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("SmartNICByName(ghost): %v, want ErrNotFound", err)
	}
}

func TestUnitHelpers(t *testing.T) {
	if Gbps(1) != 1e9 {
		t.Error("unit helpers wrong")
	}
	if Platform(0).String() != "server" || PISA.String() != "pisa" {
		t.Error("platform names wrong")
	}
	if Platform(99).String() == "" {
		t.Error("unknown platform should still stringify")
	}
}
