package traffic

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/sim"
)

// TestUDPCBRCloseReleasesListener is the regression test for the CBR
// teardown leak: Close must release the server-side UDP listener so a
// fresh test can bind the same port, and the sender's pending tick must
// leave the domain heap.
func TestUDPCBRCloseReleasesListener(t *testing.T) {
	w, src, dst := gigChain(t)
	base := dst.StackListeners()
	test, err := StartUDPCBR(w, src, dst, UDPCBRConfig{RateBps: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	if got := dst.StackListeners(); got != base+1 {
		t.Fatalf("server registered %d listeners, want 1", got-base)
	}
	w.Run(time.Second)
	test.Close()
	if got := dst.StackListeners(); got != base {
		t.Fatalf("server still holds %d registrations after Close", got-base)
	}
	// Drain in-flight datagrams; nothing of the test may stay scheduled.
	w.Run(2 * time.Second)
	if n := w.Loop().Pending(); n != 0 {
		t.Fatalf("%d events still pending after Close", n)
	}
	again, err := StartUDPCBR(w, src, dst, UDPCBRConfig{RateBps: 5e6})
	if err != nil {
		t.Fatalf("restart on the released port: %v", err)
	}
	again.Close()
}

// TestPingStopCancelsIntervalTimer is the regression test for the ping
// teardown leak: Stop must cancel the interval tick (and any pending
// echo-loss timeouts) so the loop drains instead of ticking forever.
func TestPingStopCancelsIntervalTimer(t *testing.T) {
	w, src, dst := gigChain(t)
	NewICMPHost(dst)
	h := NewICMPHost(src)
	p := h.StartPing(PingConfig{Src: src.Addr(), Dst: dst.Addr(),
		Interval: 50 * time.Millisecond}) // Count 0: runs until Stop
	w.Run(time.Second)
	p.Stop()
	sent := p.Sent
	w.Run(3 * time.Second)
	if p.Sent != sent {
		t.Fatalf("stopped ping kept sending: %d then %d", sent, p.Sent)
	}
	if n := w.Loop().Pending(); n != 0 {
		t.Fatalf("%d events still pending after Stop", n)
	}
}

// TestPingIDsArePerHost: ping identifiers come from the host dispatcher,
// not package state, so two worlds allocate independently and two
// clients on one host stay distinct.
func TestPingIDsArePerHost(t *testing.T) {
	w1, src1, dst1 := gigChain(t)
	w2, src2, dst2 := gigChain(t)
	NewICMPHost(dst1)
	NewICMPHost(dst2)
	h1, h2 := NewICMPHost(src1), NewICMPHost(src2)
	p1 := h1.StartPing(PingConfig{Src: src1.Addr(), Dst: dst1.Addr(), Count: 1})
	q1 := h1.StartPing(PingConfig{Src: src1.Addr(), Dst: dst1.Addr(), Count: 1})
	p2 := h2.StartPing(PingConfig{Src: src2.Addr(), Dst: dst2.Addr(), Count: 1})
	if p1.id == q1.id {
		t.Fatalf("two clients on one host share id %#x", p1.id)
	}
	if p1.id != p2.id {
		t.Fatalf("first client ids differ across worlds (%#x vs %#x): allocation leaked cross-world state",
			p1.id, p2.id)
	}
	w1.Run(time.Second)
	w2.Run(time.Second)
	if p1.Lost != 0 || q1.Lost != 0 || p2.Lost != 0 {
		t.Fatalf("losses on clean paths: %d %d %d", p1.Lost, q1.Lost, p2.Lost)
	}
}

// TestEndpointLedger exercises the registration ledger: every listen is
// recorded, a failed one is not, and close is idempotent and complete.
func TestEndpointLedger(t *testing.T) {
	_, src, _ := gigChain(t)
	base := src.StackListeners()
	e := newEndpoint(src)
	open := func() int { return len(e.udp) + len(e.tcp) }
	sink := func([]byte) {}
	if err := e.listenUDP(7000, sink); err != nil {
		t.Fatal(err)
	}
	if err := e.listenUDP(7001, sink); err != nil {
		t.Fatal(err)
	}
	if err := e.listenTCP(7002, sink); err != nil {
		t.Fatal(err)
	}
	if open() != 3 || src.StackListeners() != base+3 {
		t.Fatalf("ledger %d, stack %d: want 3 each", open(), src.StackListeners()-base)
	}
	// Registering a taken port fails without touching the ledger.
	if err := e.listenUDP(7000, sink); err == nil {
		t.Fatal("duplicate UDP registration succeeded")
	}
	if open() != 3 {
		t.Fatalf("failed listen moved the ledger to %d", open())
	}
	e.close()
	if open() != 0 || src.StackListeners() != base {
		t.Fatalf("after close: ledger %d, stack %d", open(), src.StackListeners()-base)
	}
	e.close() // idempotent
	// The ports are free for a fresh endpoint.
	f := newEndpoint(src)
	if err := f.listenUDP(7000, sink); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	f.close()
}

func TestFrameRoundTrip(t *testing.T) {
	buf := make([]byte, frameHeaderLen)
	putFrame(buf, 0xdeadbeef, 1234567891011)
	seq, at, ok := parseFrame(buf)
	if !ok || seq != 0xdeadbeef || at != 1234567891011 {
		t.Fatalf("round-trip gave seq=%#x at=%d ok=%v", seq, at, ok)
	}
	if _, _, ok := parseFrame(buf[:frameHeaderLen-1]); ok {
		t.Fatal("parseFrame accepted a short payload")
	}
}

// TestFixedRateRetunes: the spec-level `rate` action retargets a running
// CBR flow through SetRate; pacing must follow.
func TestFixedRateRetunes(t *testing.T) {
	if got, want := paceInterval(1500, 1e6), 12*time.Millisecond; got != want {
		t.Fatalf("paceInterval(1500B, 1Mb/s) = %v, want %v", got, want)
	}
	if got, want := paceInterval(1500, 2e6), 6*time.Millisecond; got != want {
		t.Fatalf("paceInterval(1500B, 2Mb/s) = %v, want %v", got, want)
	}

	// End to end: quadrupling the rate mid-run must speed the sender up
	// by roughly the same factor.
	w, src, dst := gigChain(t)
	test, err := StartUDPCBR(w, src, dst, UDPCBRConfig{RateBps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(2 * time.Second)
	atOne := test.Sent()
	test.SetRate(4e6)
	w.Run(4 * time.Second)
	burst := test.Sent() - atOne
	test.Close()
	if burst < 3*atOne {
		t.Fatalf("4x retune sent only %d packets vs %d at 1x", burst, atOne)
	}
}

// TestAdaptiveWorkloadSmoke drives the adaptive sender directly over a
// constrained link (no simtest harness): the estimate must converge near
// the bottleneck and Close must release the data and feedback listeners
// on both nodes.
func TestAdaptiveWorkloadSmoke(t *testing.T) {
	loop := sim.NewLoop(7)
	w := netem.New(loop)
	prof := netem.DETERProfile()
	src, err := w.AddNode("src", netip.MustParseAddr("10.9.0.1"), prof, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := w.AddNode("dst", netip.MustParseAddr("10.9.0.2"), prof, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.AddLink(netem.LinkConfig{A: "src", B: "dst", Bandwidth: 2e6,
		Delay: 5 * time.Millisecond, QueueBytes: 30000})
	w.ComputeRoutes()
	srcBase, dstBase := src.StackListeners(), dst.StackListeners()
	a, err := StartAdaptive(w, src, dst, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if src.StackListeners() != srcBase+1 || dst.StackListeners() != dstBase+1 {
		t.Fatal("adaptive flow did not register exactly one listener per node")
	}
	w.Run(20 * time.Second)
	if est := a.EstimateBps(); est < 0.45*2e6 || est > 1.35*2e6 {
		t.Fatalf("estimate = %.0f b/s against a 2 Mb/s bottleneck", est)
	}
	if a.Received() == 0 || a.Sent() == 0 {
		t.Fatalf("no traffic: sent=%d received=%d", a.Sent(), a.Received())
	}
	a.Close()
	if src.StackListeners() != srcBase || dst.StackListeners() != dstBase {
		t.Fatal("Close left adaptive listeners registered")
	}
	w.Run(21 * time.Second)
	if n := w.Loop().Pending(); n != 0 {
		t.Fatalf("%d events still pending after Close", n)
	}
}
