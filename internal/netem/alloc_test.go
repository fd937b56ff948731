package netem

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/fib"
	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/sim"
)

// TestCrossDomainPacketPathAllocs proves the per-packet path is
// allocation-free in steady state: locally-originated forward at the
// source node → typed transmit event → link serialization with lazy
// queue drain → cross-domain message train → typed delivery → kernel
// route lookup at the far node → drop (no route). The drop exit keeps the
// guard on the forwarding fabric alone; TestWholePathZeroAlloc (root
// package) covers the path through sockets, Click and local delivery.
func TestCrossDomainPacketPathAllocs(t *testing.T) {
	base := packet.Stats()
	x := sim.NewExecutor(21, 1)
	loop := x.Loop()
	w := New(loop)
	aAddr := netip.MustParseAddr("192.168.0.1")
	bAddr := netip.MustParseAddr("192.168.0.2")
	a, err := w.AddNode("a", aAddr, DETERProfile(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddNode("b", bAddr, DETERProfile(), sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddLink(LinkConfig{A: "a", B: "b", Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Route the probe prefix out of a toward b; b has no route for it
	// and no listener, so every packet exits through the alloc-free
	// kernel drop.
	dst := netip.MustParseAddr("10.99.0.1")
	a.routes.Replace("test", []fib.Route{{
		Prefix: netip.PrefixFrom(dst, 32), OutPort: 0, Metric: 1, Owner: "test",
	}})

	const burst = 32
	dgrams := make([][]byte, burst)
	for i := range dgrams {
		dgrams[i] = packet.BuildUDP(aAddr, dst, 5000, 7, 64, []byte("probe"))
	}
	until := time.Duration(0)
	cycle := func() {
		for i := 0; i < burst; i++ {
			p := packet.Get()
			p.Append(dgrams[i])
			a.route(p, true)
		}
		until += 20 * time.Millisecond
		w.Run(until)
	}
	for i := 0; i < 5; i++ {
		cycle() // warm pools, caches, trains, heaps
	}
	dropsBefore := w.MustNode("b").Drops
	avg := testing.AllocsPerRun(50, cycle)
	if got := w.MustNode("b").Drops; got == dropsBefore {
		t.Fatal("probe packets never reached b's drop path")
	}
	// Each cycle runs 19 ms past its burst's last arrival, so every
	// packet taken from the pool has reached b's drop by now.
	if d := packet.Stats().Sub(base); d.InFlight() != 0 {
		t.Fatalf("pool ledger unbalanced: %d gets, %d releases", d.Gets, d.Releases)
	}
	// sync.Pool sheds Puts under the race detector, so only the ledger
	// is checked there.
	if perPkt := avg / burst; !raceEnabled && perPkt > 0.02 {
		t.Fatalf("cross-domain packet path allocates %.3f allocs/packet (%.1f per %d-packet burst), want 0",
			perPkt, avg, burst)
	}
}
