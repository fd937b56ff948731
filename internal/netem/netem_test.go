package netem

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/sim"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// threeNodeNet builds src -- fwdr -- dst with the given profile/links.
func threeNodeNet(t *testing.T, prof Profile, bw float64, delay time.Duration) (*Network, *Node, *Node, *Node) {
	t.Helper()
	loop := sim.NewLoop(1)
	w := New(loop)
	src, err := w.AddNode("src", addr("192.168.1.1"), prof, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := w.AddNode("fwdr", addr("192.168.1.2"), prof, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := w.AddNode("dst", addr("192.168.1.3"), prof, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddLink(LinkConfig{A: "src", B: "fwdr", Bandwidth: bw, Delay: delay}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddLink(LinkConfig{A: "fwdr", B: "dst", Bandwidth: bw, Delay: delay}); err != nil {
		t.Fatal(err)
	}
	w.ComputeRoutes()
	return w, src, fwd, dst
}

func TestKernelForwardingDelivers(t *testing.T) {
	w, src, _, dst := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	var got [][]byte
	if err := dst.StackListenUDP(7000, func(d []byte) { got = append(got, append([]byte(nil), d...)) }); err != nil {
		t.Fatal(err)
	}
	d := packet.BuildUDP(src.Addr(), dst.Addr(), 5000, 7000, 64, []byte("hello"))
	src.StackSend(d)
	w.Run(10 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("delivered = %d, want 1", len(got))
	}
	var ip packet.IPv4
	if _, err := ip.Parse(got[0]); err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Fatalf("TTL = %d, want 63 (one kernel hop)", ip.TTL)
	}
}

func TestLatencyMatchesLinkModel(t *testing.T) {
	prof := DETERProfile()
	w, src, _, dst := threeNodeNet(t, prof, 1e9, 100*time.Microsecond)
	var arrived time.Duration
	dst.StackListenUDP(7000, func(d []byte) { arrived = dst.Clock().Now() })
	payload := make([]byte, 1000-packet.IPv4HeaderLen-packet.UDPHeaderLen)
	d := packet.BuildUDP(src.Addr(), dst.Addr(), 5000, 7000, 64, payload)
	src.StackSend(d)
	w.Run(10 * time.Millisecond)
	// Expected: 2 links × (wire 8µs for 1000B at 1Gb/s + 100µs prop) +
	// stack costs + kernel forward (2× fwd cost: charge + latency).
	min := 2 * (8*time.Microsecond + 100*time.Microsecond)
	max := min + 100*time.Microsecond
	if arrived < min || arrived > max {
		t.Fatalf("arrival = %v, want in [%v, %v]", arrived, min, max)
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	loop := sim.NewLoop(1)
	w := New(loop)
	a, _ := w.AddNode("a", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	b, _ := w.AddNode("b", addr("10.0.0.2"), DETERProfile(), sched.Options{})
	l, _ := w.AddLink(LinkConfig{A: "a", B: "b", Bandwidth: 1e6, Delay: time.Millisecond, QueueBytes: 3000})
	w.ComputeRoutes()
	got := 0
	b.StackListenUDP(7, func([]byte) { got++ })
	for i := 0; i < 10; i++ {
		a.StackSend(packet.BuildUDP(a.Addr(), b.Addr(), 1, 7, 64, make([]byte, 972)))
	}
	loop.Run(time.Second)
	_, _, drops := l.Stats(0)
	if drops == 0 {
		t.Fatal("no queue drops on overloaded slow link")
	}
	if got == 0 || got >= 10 {
		t.Fatalf("delivered %d of 10", got)
	}
	if int(drops)+got != 10 {
		t.Fatalf("drops %d + delivered %d != 10", drops, got)
	}
}

func TestLinkDownBlocksTraffic(t *testing.T) {
	w, src, _, dst := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	got := 0
	dst.StackListenUDP(7, func([]byte) { got++ })
	l, _ := w.findLink("src", "fwdr")
	l.SetDown(true)
	src.StackSend(packet.BuildUDP(src.Addr(), dst.Addr(), 1, 7, 64, nil))
	w.Run(10 * time.Millisecond)
	if got != 0 {
		t.Fatal("packet crossed a failed link")
	}
	l.SetDown(false)
	src.StackSend(packet.BuildUDP(src.Addr(), dst.Addr(), 1, 7, 64, nil))
	w.Run(20 * time.Millisecond)
	if got != 1 {
		t.Fatalf("restored link delivered %d", got)
	}
}

func TestFailLinkUpcallAndReroute(t *testing.T) {
	// Triangle: a-b direct plus a-c-b detour.
	loop := sim.NewLoop(1)
	w := New(loop)
	a, _ := w.AddNode("a", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	b, _ := w.AddNode("b", addr("10.0.0.2"), DETERProfile(), sched.Options{})
	w.AddNode("c", addr("10.0.0.3"), DETERProfile(), sched.Options{})
	w.AddLink(LinkConfig{A: "a", B: "b", Bandwidth: 1e9, Delay: time.Millisecond})
	w.AddLink(LinkConfig{A: "a", B: "c", Bandwidth: 1e9, Delay: time.Millisecond})
	w.AddLink(LinkConfig{A: "c", B: "b", Bandwidth: 1e9, Delay: time.Millisecond})
	w.ComputeRoutes()
	var events []LinkEvent
	w.OnLinkEvent(func(ev LinkEvent) { events = append(events, ev) })
	got := 0
	b.StackListenUDP(7, func([]byte) { got++ })

	if err := w.FailLink("a", "b", 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].Down {
		t.Fatalf("upcall events = %+v", events)
	}
	// Before substrate reconvergence, traffic to b is blackholed.
	a.StackSend(packet.BuildUDP(a.Addr(), b.Addr(), 1, 7, 64, nil))
	w.Run(40 * time.Millisecond)
	if got != 0 {
		t.Fatal("traffic delivered before reroute")
	}
	// After reconvergence it flows via c.
	w.Run(60 * time.Millisecond)
	a.StackSend(packet.BuildUDP(a.Addr(), b.Addr(), 1, 7, 64, nil))
	w.Run(100 * time.Millisecond)
	if got != 1 {
		t.Fatalf("rerouted delivery = %d, want 1", got)
	}
	if err := w.RestoreLink("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Down {
		t.Fatalf("restore upcall missing: %+v", events)
	}
}

func TestProcessSocketAndCost(t *testing.T) {
	w, src, fwd, _ := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	proc := fwd.NewProcess(ProcessConfig{Name: "click", Share: 0.25})
	var handled []time.Duration
	if _, err := proc.OpenUDP(33000, func(p *packet.Packet) {
		handled = append(handled, w.Loop().Now())
	}); err != nil {
		t.Fatal(err)
	}
	src.StackSend(packet.BuildUDP(src.Addr(), fwd.Addr(), 33000, 33000, 64, make([]byte, 1400)))
	w.Run(50 * time.Millisecond)
	if len(handled) != 1 {
		t.Fatalf("handled = %d", len(handled))
	}
	// The handler runs only after the profile's per-packet CPU cost.
	cost := DETERProfile().userPacketCost(1400 + packet.UDPHeaderLen + packet.IPv4HeaderLen)
	if cost < 30*time.Microsecond {
		t.Fatalf("per-packet cost suspiciously low: %v", cost)
	}
	if proc.Task().Used() < cost {
		t.Fatalf("task used %v < packet cost %v", proc.Task().Used(), cost)
	}
}

func TestSocketBufferOverflow(t *testing.T) {
	// A hogged CPU delays the process; packets beyond the socket buffer
	// are dropped — Figure 6(a)'s mechanism.
	loop := sim.NewLoop(3)
	w := New(loop)
	prof := DETERProfile()
	prof.SocketBuf = 3000 // tiny: two 1428B packets
	n, _ := w.AddNode("n", addr("10.0.0.1"), prof, sched.Options{})
	m, _ := w.AddNode("m", addr("10.0.0.2"), DETERProfile(), sched.Options{})
	w.AddLink(LinkConfig{A: "m", B: "n", Bandwidth: 1e9, Delay: 10 * time.Microsecond})
	w.ComputeRoutes()
	// Saturate the CPU with an always-busy hog so the process waits.
	hogBusy := true
	hog := n.CPU.NewTask(sched.TaskConfig{Name: "hog", Share: 0.5,
		Work: func(b time.Duration) (time.Duration, bool) { return b, hogBusy }})
	hog.Wake()
	proc := n.NewProcess(ProcessConfig{Name: "click", Share: 0.001})
	got := 0
	sock, _ := proc.OpenUDP(33000, func(p *packet.Packet) { got++ })
	for i := 0; i < 10; i++ {
		m.StackSend(packet.BuildUDP(m.Addr(), n.Addr(), 1, 33000, 64, make([]byte, 1400)))
	}
	loop.Run(2 * time.Second)
	hogBusy = false
	loop.Run(3 * time.Second)
	if sock.Drops == 0 {
		t.Fatal("no socket overflow drops under CPU contention")
	}
	if got+int(sock.Drops) != 10 {
		t.Fatalf("got %d + drops %d != 10", got, sock.Drops)
	}
}

func TestTapRouting(t *testing.T) {
	loop := sim.NewLoop(1)
	w := New(loop)
	n, _ := w.AddNode("n", addr("198.32.154.50"), DETERProfile(), sched.Options{})
	proc := n.NewProcess(ProcessConfig{Name: "click", Share: 0.25})
	var viaTap []*packet.Packet
	proc.OpenTap(netip.MustParsePrefix("10.0.0.0/8"), func(p *packet.Packet) {
		viaTap = append(viaTap, p)
	})
	// A locally-originated packet to 10/8 goes to the tap (and thus the
	// slice's Click), not the kernel route table.
	n.StackSend(packet.BuildUDP(addr("10.1.87.2"), addr("10.1.2.3"), 1, 2, 64, nil))
	loop.Run(10 * time.Millisecond)
	if len(viaTap) != 1 {
		t.Fatalf("tap got %d packets", len(viaTap))
	}
}

func TestProcessPortConflicts(t *testing.T) {
	loop := sim.NewLoop(1)
	w := New(loop)
	n, _ := w.AddNode("n", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	p1 := n.NewProcess(ProcessConfig{Name: "a"})
	p2 := n.NewProcess(ProcessConfig{Name: "b"})
	if _, err := p1.OpenUDP(5000, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.OpenUDP(5000, func(*packet.Packet) {}); err == nil {
		t.Fatal("duplicate bind allowed (VNET isolation violated)")
	}
	if err := n.StackListenUDP(5000, func([]byte) {}); err == nil {
		t.Fatal("stack listener allowed over process socket")
	}
}

func TestKernelUtilizationAccounting(t *testing.T) {
	w, src, fwd, dst := threeNodeNet(t, DETERProfile(), 1e9, 10*time.Microsecond)
	dst.StackListenUDP(7, func([]byte) {})
	for i := 0; i < 1000; i++ {
		src.StackSend(packet.BuildUDP(src.Addr(), dst.Addr(), 1, 7, 64, make([]byte, 1000)))
	}
	w.Run(100 * time.Millisecond)
	if fwd.kernelUsed <= 0 {
		t.Fatal("kernel forwarding not accounted")
	}
	fwd.ResetAccounting()
	if fwd.kernelUsed != 0 {
		t.Fatal("accounting not reset")
	}
}

func TestUserPacketCostFormula(t *testing.T) {
	p := DETERProfile()
	got := p.userPacketCost(1500)
	want := 6*5*time.Microsecond + 1500*10*time.Nanosecond + 1*time.Microsecond
	if got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
	pl := PlanetLabProfile()
	if pl.userPacketCost(1500) >= got {
		t.Fatal("PlanetLab profile should be slightly cheaper (P-III vs NetBurst)")
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	loop := sim.NewLoop(1)
	w := New(loop)
	w.AddNode("x", addr("10.0.0.1"), DETERProfile(), sched.Options{})
	if _, err := w.AddNode("x", addr("10.0.0.2"), DETERProfile(), sched.Options{}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := w.AddLink(LinkConfig{A: "x", B: "ghost", Bandwidth: 1e9}); err == nil {
		t.Fatal("link to unknown node accepted")
	}
	w.AddNode("y", addr("10.0.0.3"), DETERProfile(), sched.Options{})
	if _, err := w.AddLink(LinkConfig{A: "x", B: "y", Bandwidth: 0}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := w.AddLink(LinkConfig{A: "x", B: "x", Bandwidth: 1e9}); err == nil {
		t.Fatal("link from a node to itself accepted")
	}
}
