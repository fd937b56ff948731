package nat

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"vini/internal/packet"
)

var (
	insideA = netip.MustParseAddr("10.1.87.2")    // OpenVPN client inside the overlay
	cnn     = netip.MustParseAddr("64.236.16.20") // external web server (Fig 2)
	egress  = netip.MustParseAddr("198.32.154.226")
)

func newTable(now *time.Duration) *Table {
	return New(Config{External: egress, PortLow: 2000, PortHigh: 2010, Timeout: time.Minute},
		func() time.Duration { return *now })
}

func TestOutboundInboundRoundTrip(t *testing.T) {
	var now time.Duration
	nt := newTable(&now)
	orig := packet.BuildUDP(insideA, cnn, 5555, 80, 62, []byte("GET /"))
	out, err := nt.outbound(orig)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := packet.FlowOf(out)
	if !ok {
		t.Fatal("no flow on translated packet")
	}
	if f.Src != egress || f.Dst != cnn || f.DstPort != 80 {
		t.Fatalf("translated flow = %v", f)
	}
	if f.SrcPort == 5555 {
		t.Fatal("source port not rewritten")
	}
	// Return packet from CNN to the egress node.
	ret := packet.BuildUDP(cnn, egress, 80, f.SrcPort, 60, []byte("200 OK"))
	back, ok, err := nt.inbound(ret)
	if err != nil || !ok {
		t.Fatalf("inbound: ok=%v err=%v", ok, err)
	}
	bf, _ := packet.FlowOf(back)
	if bf.Dst != insideA || bf.DstPort != 5555 || bf.Src != cnn {
		t.Fatalf("restored flow = %v", bf)
	}
	// Checksums on the restored packet must verify end-to-end.
	var ip packet.IPv4
	payload, err := ip.Parse(back)
	if err != nil {
		t.Fatal(err)
	}
	var u packet.UDP
	if _, err := u.Parse(payload); err != nil {
		t.Fatal(err)
	}
	if !u.VerifyChecksum(ip.Src, ip.Dst, payload) {
		t.Fatal("UDP checksum invalid after translation")
	}
}

func TestStableBindingReuse(t *testing.T) {
	var now time.Duration
	nt := newTable(&now)
	d := packet.BuildUDP(insideA, cnn, 5555, 80, 62, []byte("a"))
	o1, _ := nt.outbound(d)
	o2, _ := nt.outbound(d)
	f1, _ := packet.FlowOf(o1)
	f2, _ := packet.FlowOf(o2)
	if f1 != f2 {
		t.Fatalf("binding not stable: %v vs %v", f1, f2)
	}
	if nt.Len() != 1 {
		t.Fatalf("bindings = %d, want 1", nt.Len())
	}
}

func TestDistinctFlowsGetDistinctPorts(t *testing.T) {
	var now time.Duration
	nt := newTable(&now)
	o1, _ := nt.outbound(packet.BuildUDP(insideA, cnn, 5555, 80, 62, nil))
	o2, _ := nt.outbound(packet.BuildUDP(insideA, cnn, 5556, 80, 62, nil))
	f1, _ := packet.FlowOf(o1)
	f2, _ := packet.FlowOf(o2)
	if f1.SrcPort == f2.SrcPort {
		t.Fatal("two flows share an external port")
	}
}

func TestPortExhaustion(t *testing.T) {
	var now time.Duration
	nt := newTable(&now) // range 2000-2010: 11 ports
	for i := 0; i < 11; i++ {
		if _, err := nt.outbound(packet.BuildUDP(insideA, cnn, uint16(6000+i), 80, 62, nil)); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := nt.outbound(packet.BuildUDP(insideA, cnn, 7000, 80, 62, nil)); err == nil {
		t.Fatal("exhausted range still allocated")
	}
}

func TestTimeoutFreesPorts(t *testing.T) {
	var now time.Duration
	nt := newTable(&now)
	for i := 0; i < 11; i++ {
		nt.outbound(packet.BuildUDP(insideA, cnn, uint16(6000+i), 80, 62, nil))
	}
	now = 2 * time.Minute
	if _, err := nt.outbound(packet.BuildUDP(insideA, cnn, 7000, 80, 62, nil)); err != nil {
		t.Fatalf("expired bindings not reclaimed: %v", err)
	}
	if nt.Len() != 1 {
		t.Fatalf("bindings = %d, want 1 after expiry", nt.Len())
	}
}

func TestInboundUnknownDropped(t *testing.T) {
	var now time.Duration
	nt := newTable(&now)
	ret := packet.BuildUDP(cnn, egress, 80, 2003, 60, nil)
	_, ok, err := nt.inbound(ret)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unsolicited inbound accepted")
	}
}

func TestInboundWrongPeerDropped(t *testing.T) {
	var now time.Duration
	nt := newTable(&now)
	o, _ := nt.outbound(packet.BuildUDP(insideA, cnn, 5555, 80, 62, nil))
	f, _ := packet.FlowOf(o)
	// Same external port but from a different remote host: reject (an
	// address-dependent filtering NAT, which is what Click's element does).
	ret := packet.BuildUDP(netip.MustParseAddr("198.51.100.1"), egress, 80, f.SrcPort, 60, nil)
	_, ok, _ := nt.inbound(ret)
	if ok {
		t.Fatal("inbound from wrong peer accepted")
	}
}

func TestICMPEchoTranslation(t *testing.T) {
	var now time.Duration
	nt := newTable(&now)
	echo := packet.BuildICMPEcho(insideA, cnn, false, 777, 1, 62, []byte("ping"))
	out, err := nt.outbound(echo)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := packet.FlowOf(out)
	if f.Src != egress || f.SrcPort == 777 {
		t.Fatalf("echo not translated: %v", f)
	}
	reply := packet.BuildICMPEcho(cnn, egress, true, f.SrcPort, 1, 60, []byte("ping"))
	back, ok, err := nt.inbound(reply)
	if err != nil || !ok {
		t.Fatalf("echo reply: ok=%v err=%v", ok, err)
	}
	bf, _ := packet.FlowOf(back)
	if bf.Dst != insideA || bf.SrcPort != 777 {
		t.Fatalf("restored echo = %v", bf)
	}
}

func TestTCPTranslationChecksums(t *testing.T) {
	var now time.Duration
	nt := newTable(&now)
	syn := packet.BuildTCP(insideA, cnn, packet.TCP{SrcPort: 4000, DstPort: 80, Seq: 9, Flags: packet.TCPSyn, Window: 16384}, 62, nil)
	out, err := nt.outbound(syn)
	if err != nil {
		t.Fatal(err)
	}
	var ip packet.IPv4
	payload, err := ip.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	var th packet.TCP
	if _, err := th.Parse(payload); err != nil {
		t.Fatal(err)
	}
	if th.Seq != 9 || th.Flags != packet.TCPSyn || th.DstPort != 80 {
		t.Fatalf("TCP fields damaged: %+v", th)
	}
	// Re-marshal with the same fields and compare checksum validity.
	reb := th.Marshal(ip.Src, ip.Dst, nil)
	if string(reb) != string(payload) {
		t.Fatal("translated TCP segment checksum mismatch")
	}
}

// Property: outbound then inbound of the mirrored reply always restores
// the original source exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(sport uint16, body []byte) bool {
		if sport == 0 {
			sport = 1
		}
		if len(body) > 512 {
			body = body[:512]
		}
		var now time.Duration
		nt := New(Config{External: egress}, func() time.Duration { return now })
		d := packet.BuildUDP(insideA, cnn, sport, 80, 62, body)
		out, err := nt.outbound(d)
		if err != nil {
			return false
		}
		fo, _ := packet.FlowOf(out)
		ret := packet.BuildUDP(cnn, egress, 80, fo.SrcPort, 60, body)
		back, ok, err := nt.inbound(ret)
		if err != nil || !ok {
			return false
		}
		bf, _ := packet.FlowOf(back)
		return bf.Dst == insideA && bf.DstPort == sport
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
