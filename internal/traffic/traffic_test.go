package traffic

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/sim"
)

// gigChain builds src -- fwdr -- dst over GigE with the DETER profile.
func gigChain(t *testing.T) (*netem.Network, *netem.Node, *netem.Node) {
	t.Helper()
	loop := sim.NewLoop(1)
	w := netem.New(loop)
	prof := netem.DETERProfile()
	src, err := w.AddNode("src", netip.MustParseAddr("192.168.1.1"), prof, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddNode("fwdr", netip.MustParseAddr("192.168.1.2"), prof, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	dst, err := w.AddNode("dst", netip.MustParseAddr("192.168.1.3"), prof, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.AddLink(netem.LinkConfig{A: "src", B: "fwdr", Bandwidth: 1e9, Delay: 90 * time.Microsecond})
	w.AddLink(netem.LinkConfig{A: "fwdr", B: "dst", Bandwidth: 1e9, Delay: 90 * time.Microsecond})
	w.ComputeRoutes()
	return w, src, dst
}

func TestPingOverKernelPath(t *testing.T) {
	w, src, dst := gigChain(t)
	NewICMPHost(dst)
	h := NewICMPHost(src)
	p := h.StartPing(PingConfig{Src: src.Addr(), Dst: dst.Addr(),
		Interval: 10 * time.Millisecond, Count: 100})
	w.Run(5 * time.Second)
	if p.Sent != 100 {
		t.Fatalf("sent = %d", p.Sent)
	}
	if p.Lost != 0 {
		t.Fatalf("lost = %d on a clean path", p.Lost)
	}
	// RTT ≈ 4×90µs propagation + kernel costs: well under 1 ms, over 0.3.
	if avg := p.RTTs.Mean(); avg < 0.3 || avg > 1.0 {
		t.Fatalf("mean RTT = %.3f ms", avg)
	}
	if len(p.Timeline) != 100 {
		t.Fatalf("timeline = %d", len(p.Timeline))
	}
}

func TestPingCountsLosses(t *testing.T) {
	w, src, dst := gigChain(t)
	NewICMPHost(dst)
	h := NewICMPHost(src)
	p := h.StartPing(PingConfig{Src: src.Addr(), Dst: dst.Addr(),
		Interval: 50 * time.Millisecond, Count: 20, Timeout: 500 * time.Millisecond})
	// Fail the path mid-test.
	l := w.Links()[0] // src-fwdr
	w.Loop().Schedule(500*time.Millisecond, func() { l.SetDown(true) })
	w.Run(10 * time.Second)
	if p.Lost == 0 {
		t.Fatal("no losses recorded across a dead link")
	}
	if p.Lost+p.RTTs.N() != p.Sent {
		t.Fatalf("lost %d + replied %d != sent %d", p.Lost, p.RTTs.N(), p.Sent)
	}
}

func TestIperfTCPNativeGigabit(t *testing.T) {
	w, src, dst := gigChain(t)
	test, err := StartIperfTCP(w, src, dst, IperfTCPConfig{Streams: 20, Window: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(5 * time.Second)
	test.Stop()
	mbps := test.Mbps()
	// The paper's Table 2 native row: ≈940 Mb/s on GigE.
	if mbps < 850 || mbps > 1000 {
		t.Fatalf("native TCP = %.0f Mb/s, want ~940", mbps)
	}
}

func TestIperfTCPPortConflict(t *testing.T) {
	w, src, dst := gigChain(t)
	if _, err := StartIperfTCP(w, src, dst, IperfTCPConfig{Streams: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := StartIperfTCP(w, src, dst, IperfTCPConfig{Streams: 2}); err == nil {
		t.Fatal("second test reused ports without error")
	}
}

func TestUDPCBRCleanPath(t *testing.T) {
	w, src, dst := gigChain(t)
	test, err := StartUDPCBR(w, src, dst, UDPCBRConfig{RateBps: 10e6})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(5 * time.Second)
	test.Stop()
	w.Run(6 * time.Second)
	if test.LossRate() != 0 {
		t.Fatalf("loss = %.3f on clean GigE", test.LossRate())
	}
	if test.Received() < 4000 {
		t.Fatalf("received only %d packets", test.Received())
	}
	// Constant-rate CBR over fixed-delay links: jitter near zero.
	if test.Jitter() > 0.1 {
		t.Fatalf("jitter = %.3f ms on a constant path", test.Jitter())
	}
}

func TestUDPCBRSeesQueueLoss(t *testing.T) {
	loop := sim.NewLoop(2)
	w := netem.New(loop)
	prof := netem.DETERProfile()
	a, _ := w.AddNode("a", netip.MustParseAddr("10.0.0.1"), prof, sched.Options{})
	b, _ := w.AddNode("b", netip.MustParseAddr("10.0.0.2"), prof, sched.Options{})
	_ = a
	w.AddLink(netem.LinkConfig{A: "a", B: "b", Bandwidth: 5e6, Delay: time.Millisecond, QueueBytes: 20000})
	w.ComputeRoutes()
	// Send 10 Mb/s into a 5 Mb/s link: ~50% loss.
	test, err := StartUDPCBR(w, a, b, UDPCBRConfig{RateBps: 10e6})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(5 * time.Second)
	test.Stop()
	w.Run(6 * time.Second)
	if lr := test.LossRate(); lr < 0.3 || lr > 0.7 {
		t.Fatalf("loss = %.2f, want ~0.5 for 2x overload", lr)
	}
	_ = b
}

func TestUDPCBRJitterUnderVariableDelay(t *testing.T) {
	loop := sim.NewLoop(3)
	w := netem.New(loop)
	prof := netem.DETERProfile()
	a, _ := w.AddNode("a", netip.MustParseAddr("10.0.0.1"), prof, sched.Options{})
	w.AddNode("b", netip.MustParseAddr("10.0.0.2"), prof, sched.Options{})
	w.AddLink(netem.LinkConfig{A: "a", B: "b", Bandwidth: 1e9,
		Delay: 5 * time.Millisecond, Jitter: 4 * time.Millisecond})
	w.ComputeRoutes()
	b, _ := w.Node("b")
	test, err := StartUDPCBR(w, a, b, UDPCBRConfig{RateBps: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(5 * time.Second)
	test.Stop()
	if test.Jitter() < 0.3 {
		t.Fatalf("jitter = %.3f ms, expected >0.3 with 4ms link jitter", test.Jitter())
	}
}
