package openflow

import (
	"errors"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/packet"
)

func ofSwitch() *Switch {
	tb := hw.NewPaperTestbed(hw.WithOpenFlowSwitch())
	return NewSwitch(tb.OFSwitch)
}

func taggedFrame(vid uint16, dst packet.IPv4Addr) []byte {
	return packet.Builder{
		VLANID: vid,
		Src:    packet.IPv4Addr{10, 0, 0, 1}, Dst: dst,
		SrcPort: 1000, DstPort: 2000, Payload: []byte("x"),
	}.Build()
}

func TestCheckOrder(t *testing.T) {
	s := ofSwitch() // pipeline: vlan, acl, monitor, forward
	if err := s.CheckOrder([]string{"Detunnel", "ACL", "Monitor", "IPv4Fwd"}); err != nil {
		t.Errorf("in-order sequence rejected: %v", err)
	}
	if err := s.CheckOrder([]string{"ACL", "IPv4Fwd"}); err != nil {
		t.Errorf("subsequence rejected: %v", err)
	}
	// Same-table repetition is fine (non-decreasing).
	if err := s.CheckOrder([]string{"ACL", "ACL"}); err != nil {
		t.Errorf("repeat rejected: %v", err)
	}
	if err := s.CheckOrder([]string{"Monitor", "ACL"}); !errors.Is(err, errTableOrder) {
		t.Errorf("out-of-order: %v", err)
	}
	if err := s.CheckOrder([]string{"IPv4Fwd", "Tunnel"}); !errors.Is(err, errTableOrder) {
		t.Errorf("forward-then-vlan: %v", err)
	}
	if err := s.CheckOrder([]string{"Encrypt"}); !errors.Is(err, errNoOFImpl) {
		t.Errorf("no OF impl: %v", err)
	}
	if err := s.CheckOrder([]string{"Quantum"}); !errors.Is(err, errNoOFImpl) {
		t.Errorf("unknown class: %v", err)
	}
}

func TestDeployAndProcess(t *testing.T) {
	s := ofSwitch()
	acl, err := nf.New("ACL", "acl0", nf.Params{"allow_dst": "172.16.0.0/12", "rules": 0})
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := nf.New("Monitor", "mon0", nil)
	vid, err := PathVID(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(vid, []nf.NF{acl, mon}, 1024, Binding{OutPort: 7}); err != nil {
		t.Fatal(err)
	}
	out, err := s.ProcessFrame(taggedFrame(vid, packet.IPv4Addr{172, 16, 9, 9}), &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	var p packet.Packet
	if err := p.Decode(out); err != nil {
		t.Fatal(err)
	}
	if !p.HasVLAN || p.VLAN.VID != vid {
		t.Errorf("vid = %d, want %d", p.VLAN.VID, vid)
	}
	if mon.(*nf.Monitor).NumFlows() != 1 {
		t.Error("monitor did not observe the flow")
	}
	// ACL drop path.
	dropped, err := s.ProcessFrame(taggedFrame(vid, packet.IPv4Addr{9, 9, 9, 9}), &nf.Env{})
	if err != nil || dropped != nil {
		t.Errorf("deny traffic: out=%v err=%v", dropped, err)
	}
}

func TestDeployRejectsBadOrder(t *testing.T) {
	s := ofSwitch()
	mon, _ := nf.New("Monitor", "m", nil)
	acl, _ := nf.New("ACL", "a", nil)
	if err := s.Deploy(5, []nf.NF{mon, acl}, 10, Binding{}); !errors.Is(err, errTableOrder) {
		t.Errorf("err = %v", err)
	}
}

func TestRuleCapacity(t *testing.T) {
	s := ofSwitch()
	acl, _ := nf.New("ACL", "a", nil)
	if err := s.Deploy(1, []nf.NF{acl}, 4000, Binding{}); err != nil {
		t.Fatal(err)
	}
	if got := s.RulesUsed(); got != 4000 {
		t.Errorf("RulesUsed = %d", got)
	}
	acl2, _ := nf.New("ACL", "b", nil)
	if err := s.Deploy(2, []nf.NF{acl2}, 200, Binding{}); !errors.Is(err, errRuleCapacity) {
		t.Errorf("err = %v", err)
	}
}

func TestVIDRewriteAndPop(t *testing.T) {
	s := ofSwitch()
	dt, _ := nf.New("Detunnel", "d", nil)
	_ = dt
	fwd, _ := nf.New("IPv4Fwd", "f", nil)
	// Rewrite vid on exit.
	if err := s.Deploy(10, []nf.NF{fwd}, 1, Binding{NextVID: 11}); err != nil {
		t.Fatal(err)
	}
	out, err := s.ProcessFrame(taggedFrame(10, packet.IPv4Addr{1, 1, 1, 1}), &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	var p packet.Packet
	p.Decode(out)
	if p.VLAN.VID != 11 {
		t.Errorf("vid = %d, want 11", p.VLAN.VID)
	}
	// Pop on exit.
	fwd2, _ := nf.New("IPv4Fwd", "f2", nil)
	if err := s.Deploy(12, []nf.NF{fwd2}, 1, Binding{PopVLAN: true, OutPort: 3}); err != nil {
		t.Fatal(err)
	}
	out2, err := s.ProcessFrame(taggedFrame(12, packet.IPv4Addr{1, 1, 1, 1}), &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	var q packet.Packet
	q.Decode(out2)
	if q.HasVLAN {
		t.Error("vid not popped")
	}
}

func TestProcessMisses(t *testing.T) {
	s := ofSwitch()
	if _, err := s.ProcessFrame(taggedFrame(99, packet.IPv4Addr{1, 1, 1, 1}), &nf.Env{}); !errors.Is(err, errNoBinding) {
		t.Errorf("unknown vid: %v", err)
	}
	untagged := packet.Builder{Src: packet.IPv4Addr{1, 1, 1, 1}, Dst: packet.IPv4Addr{2, 2, 2, 2}}.Build()
	if _, err := s.ProcessFrame(untagged, &nf.Env{}); !errors.Is(err, errNoBinding) {
		t.Errorf("untagged: %v", err)
	}
}
