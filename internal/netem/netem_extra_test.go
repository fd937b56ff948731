package netem

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/sim"
)

func TestLinkJitterIsFIFO(t *testing.T) {
	loop := sim.NewLoop(5)
	w := New(loop)
	a, _ := w.AddNode("a", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	b, _ := w.AddNode("b", addr("10.0.0.2"), DETERProfile(), sched.Options{})
	w.AddLink(LinkConfig{A: "a", B: "b", Bandwidth: 1e9,
		Delay: time.Millisecond, Jitter: 2 * time.Millisecond})
	w.ComputeRoutes()
	var seqs []uint16
	b.StackListenUDP(7, func(d []byte) {
		var ip packet.IPv4
		seg, _ := ip.Parse(d)
		var u packet.UDP
		u.Parse(seg)
		seqs = append(seqs, u.SrcPort)
	})
	for i := 0; i < 200; i++ {
		a.StackSend(packet.BuildUDP(a.Addr(), b.Addr(), uint16(i), 7, 64, nil))
	}
	loop.Run(time.Second)
	if len(seqs) != 200 {
		t.Fatalf("delivered %d", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("reordering under jitter: %d after %d", seqs[i], seqs[i-1])
		}
	}
}

func TestLinkStatsAccumulate(t *testing.T) {
	loop := sim.NewLoop(1)
	w := New(loop)
	a, _ := w.AddNode("a", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	b, _ := w.AddNode("b", addr("10.0.0.2"), DETERProfile(), sched.Options{})
	l, _ := w.AddLink(LinkConfig{A: "a", B: "b", Bandwidth: 1e9, Delay: time.Millisecond})
	w.ComputeRoutes()
	b.StackListenUDP(7, func([]byte) {})
	for i := 0; i < 5; i++ {
		a.StackSend(packet.BuildUDP(a.Addr(), b.Addr(), 1, 7, 64, make([]byte, 100)))
	}
	loop.Run(time.Second)
	pk, by, dr := l.Stats(0)
	if pk != 5 || dr != 0 || by != 5*128 {
		t.Fatalf("stats = %d pkts %d bytes %d drops", pk, by, dr)
	}
	if pk2, _, _ := l.Stats(1); pk2 != 0 {
		t.Fatalf("reverse direction counted %d", pk2)
	}
}

func TestTTLExpiryInKernel(t *testing.T) {
	w, src, fwd, dst := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	got := 0
	dst.StackListenUDP(7, func([]byte) { got++ })
	// TTL 1: the forwarder must drop it, not deliver.
	src.StackSend(packet.BuildUDP(src.Addr(), dst.Addr(), 1, 7, 1, nil))
	w.Run(10 * time.Millisecond)
	if got != 0 {
		t.Fatal("TTL-1 packet crossed a router")
	}
	if fwd.Drops == 0 {
		t.Fatal("drop not counted")
	}
}

func TestInjectLocalAndGarbage(t *testing.T) {
	loop := sim.NewLoop(1)
	w := New(loop)
	n, _ := w.AddNode("n", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	got := 0
	n.StackListenUDP(9, func([]byte) { got++ })
	n.InjectLocalPacket(packetOf(packet.BuildUDP(addr("10.0.0.2"), n.Addr(), 1, 9, 64, nil)))
	if got != 1 {
		t.Fatal("InjectLocal did not deliver")
	}
	drops := n.Drops
	n.InjectLocalPacket(packetOf([]byte{1, 2, 3}))
	if n.Drops != drops+1 {
		t.Fatal("garbage not counted as drop")
	}
}

func TestStackListenTCPConflict(t *testing.T) {
	loop := sim.NewLoop(1)
	w := New(loop)
	n, _ := w.AddNode("n", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	if err := n.StackListenTCP(80, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.StackListenTCP(80, func([]byte) {}); err == nil {
		t.Fatal("duplicate TCP listener accepted")
	}
}

func TestOpenPortRangeValidationAndDemux(t *testing.T) {
	loop := sim.NewLoop(1)
	w := New(loop)
	a, _ := w.AddNode("a", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	b, _ := w.AddNode("b", addr("10.0.0.2"), DETERProfile(), sched.Options{})
	w.AddLink(LinkConfig{A: "a", B: "b", Bandwidth: 1e9, Delay: time.Microsecond})
	w.ComputeRoutes()
	proc := b.NewProcess(ProcessConfig{Name: "p", Share: 0.5})
	if _, err := proc.OpenPortRange(5000, 4000, func(*packet.Packet) {}); err == nil {
		t.Fatal("inverted range accepted")
	}
	got := 0
	if _, err := proc.OpenPortRange(40000, 40010, func(*packet.Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	// UDP and TCP to the range both land in the process.
	a.StackSend(packet.BuildUDP(a.Addr(), b.Addr(), 1, 40005, 64, nil))
	a.StackSend(packet.BuildTCP(a.Addr(), b.Addr(), packet.TCP{SrcPort: 2, DstPort: 40007, Flags: packet.TCPSyn}, 64, nil))
	a.StackSend(packet.BuildUDP(a.Addr(), b.Addr(), 1, 39999, 64, nil)) // outside
	loop.Run(100 * time.Millisecond)
	if got != 2 {
		t.Fatalf("range captured %d, want 2", got)
	}
}

func TestTapPriorityOverKernelRoutes(t *testing.T) {
	// A tap route shadows kernel routes for locally originated traffic
	// even when a kernel route exists for the destination.
	loop := sim.NewLoop(1)
	w := New(loop)
	a, _ := w.AddNode("a", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	b, _ := w.AddNode("b", addr("10.9.0.2"), DETERProfile(), sched.Options{})
	w.AddLink(LinkConfig{A: "a", B: "b", Bandwidth: 1e9, Delay: time.Microsecond})
	w.ComputeRoutes()
	kernelGot := 0
	b.StackListenUDP(7, func([]byte) { kernelGot++ })
	proc := a.NewProcess(ProcessConfig{Name: "click", Share: 0.5})
	tapGot := 0
	proc.OpenTap(netip.MustParsePrefix("10.9.0.0/16"), func(*packet.Packet) { tapGot++ })
	a.StackSend(packet.BuildUDP(a.Addr(), b.Addr(), 1, 7, 64, nil))
	loop.Run(100 * time.Millisecond)
	if tapGot != 1 || kernelGot != 0 {
		t.Fatalf("tap=%d kernel=%d; tap must win for local sends", tapGot, kernelGot)
	}
}

func TestProcessSendIPRoutesViaKernel(t *testing.T) {
	w, src, _, dst := threeNodeNet(t, DETERProfile(), 1e9, 10*time.Microsecond)
	proc := src.NewProcess(ProcessConfig{Name: "p", Share: 0.5})
	got := 0
	dst.StackListenUDP(7, func([]byte) { got++ })
	proc.SendIPPacket(packetOf(packet.BuildUDP(src.Addr(), dst.Addr(), 1, 7, 64, nil)))
	w.Run(10 * time.Millisecond)
	if got != 1 {
		t.Fatal("SendIPPacket not delivered")
	}
}

func TestUtilizationWindows(t *testing.T) {
	loop := sim.NewLoop(1)
	w := New(loop)
	n, _ := w.AddNode("n", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	if u := n.kernelUsed; u != 0 {
		t.Fatalf("fresh node utilization = %v", u)
	}
	_ = loop
}
