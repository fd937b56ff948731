package ospf

// Zero-allocation guards for the control plane's steady state: what a
// converged router does every hello interval, and on every LSU that
// carries nothing new, must not allocate. The clocks are the ones a
// virtual node hands its router: a TimerGroup over the domain for the
// deadline timers, a TimerGroup over a TickWheel for the periodic ones.

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/fea"
	"vini/internal/fib"
	"vini/internal/sim"
)

type discardTransport struct{}

func (discardTransport) SendRouting(int, []byte) {}

// steadyRouter is router 1 of the line 1 - 2 - 3 with its adjacency to
// 2 Full, both remote LSAs installed and nothing awaiting an ack. It
// returns the router, its loop, a hello from 2 that lists 1, and an LSU
// from 2 carrying an LSA the router already holds.
func steadyRouter(t *testing.T) (r *Router, loop *sim.Loop, src netip.Addr, hello, oldLSU []byte) {
	t.Helper()
	loop = sim.NewLoop(1)
	wheel := sim.NewTickWheel(loop, 100*time.Millisecond)
	r = New(sim.NewTimerGroup(loop), Config{
		RouterID: 1, Hello: time.Second, Dead: time.Hour,
		Stubs: []StubDesc{stub("10.0.0.1/32")},
		Ticks: sim.NewTimerGroup(wheel),
	}, discardTransport{})
	if err := r.AddInterface(Interface{Name: "if0", Index: 0, Addr: netip.MustParseAddr("10.1.0.1"),
		Prefix: netip.MustParsePrefix("10.1.0.0/30"), Cost: 5}); err != nil {
		t.Fatal(err)
	}
	r.OnRoutes(func([]fib.Route) {})
	r.Start()
	src = netip.MustParseAddr("10.1.0.2")
	hello = MarshalHello(2, Hello{HelloInterval: 1, DeadInterval: 3600, Neighbors: []uint32{1}})
	for i := 0; i < 2; i++ { // Down -> Init -> Full
		if err := r.Receive(0, src, hello); err != nil {
			t.Fatal(err)
		}
	}
	lsa2 := LSA{Origin: 2, Seq: 4,
		Links: []LinkDesc{{NeighborID: 1, Cost: 5}, {NeighborID: 3, Cost: 7}},
		Stubs: []StubDesc{stub("10.0.0.2/32"), stub("10.1.0.0/30"), stub("10.1.0.4/30")}}
	lsa3 := LSA{Origin: 3, Seq: 2,
		Links: []LinkDesc{{NeighborID: 2, Cost: 7}},
		Stubs: []StubDesc{stub("10.0.0.3/32"), stub("10.1.0.4/30")}}
	if err := r.Receive(0, src, MarshalLSU(2, LSU{LSAs: []LSA{lsa2, lsa3}})); err != nil {
		t.Fatal(err)
	}
	var ack lsAck
	for _, l := range r.LSDB() {
		for seq := uint32(1); seq <= l.Seq; seq++ {
			ack.Keys = append(ack.Keys, lsaKey{Origin: l.Origin, Seq: seq})
		}
	}
	if err := r.Receive(0, src, appendLSAck(nil, 2, ack.Keys)); err != nil {
		t.Fatal(err)
	}
	loop.Run(loop.Now() + 5*time.Second) // SPF, a few hello ticks, no retransmission left
	if nbs := r.Neighbors(); len(nbs) != 1 || nbs[0].State != "Full" {
		t.Fatalf("adjacency not Full: %+v", nbs)
	}
	if len(r.Routes()) != 4 {
		t.Fatalf("routes = %v, want 4", r.Routes())
	}
	return r, loop, src, hello, MarshalLSU(2, LSU{LSAs: []LSA{lsa2}})
}

func wantZeroAllocs(t *testing.T, what string, step func()) {
	t.Helper()
	for i := 0; i < 300; i++ { // scratch, free lists and timer groups reach their working size
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("%s: %.0f allocs, want 0", what, allocs)
	}
}

func TestHelloRxZeroAlloc(t *testing.T) {
	r, _, src, hello, _ := steadyRouter(t)
	wantZeroAllocs(t, "hello rx on a Full adjacency (dead timer re-armed)", func() {
		if err := r.Receive(0, src, hello); err != nil {
			t.Fatal(err)
		}
	})
}

func TestKnownLSURxZeroAlloc(t *testing.T) {
	r, _, src, _, oldLSU := steadyRouter(t)
	runs := r.SPFRuns
	wantZeroAllocs(t, "LSU rx of a known LSA (acknowledged)", func() {
		if err := r.Receive(0, src, oldLSU); err != nil {
			t.Fatal(err)
		}
	})
	if r.spfPending || r.SPFRuns != runs {
		t.Fatal("old news scheduled an SPF")
	}
}

func TestHelloTickZeroAlloc(t *testing.T) {
	r, loop, _, _, _ := steadyRouter(t)
	sent := 0
	r.tr = countTransport{&sent}
	wantZeroAllocs(t, "one hello tick (encode, send, re-arm on the tick wheel)", func() {
		loop.Run(loop.Now() + time.Second)
	})
	if sent < 500 {
		t.Fatalf("%d hellos sent in 500 ticks", sent)
	}
}

// TestOriginateTwoListAllocations: a router's own LSA is built at its
// final size, a stub per interface and a link per Full neighbour, so an
// origination allocates its two lists and nothing for growing them.
func TestOriginateTwoListAllocations(t *testing.T) {
	loop := sim.NewLoop(1)
	r := New(sim.NewTimerGroup(loop), Config{RouterID: 1, Hello: time.Second, Dead: time.Hour,
		Stubs: []StubDesc{stub("10.0.0.1/32")}}, discardTransport{})
	const ifaces = 6
	for i := 0; i < ifaces; i++ {
		if err := r.AddInterface(Interface{Index: i, Addr: netip.AddrFrom4([4]byte{10, 1, byte(i), 1}),
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(i), 0}), 30), Cost: 5}); err != nil {
			t.Fatal(err)
		}
	}
	r.Start()
	for i := 0; i < ifaces; i++ {
		hello := MarshalHello(uint32(2+i), Hello{HelloInterval: 1, DeadInterval: 3600, Neighbors: []uint32{1}})
		for j := 0; j < 2; j++ { // Down -> Init -> Full
			if err := r.Receive(i, netip.AddrFrom4([4]byte{10, 1, byte(i), 2}), hello); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, r.originate); allocs != 2 {
		t.Errorf("originate on %d Full interfaces: %.0f allocs, want 2 (Stubs and Links)", ifaces, allocs)
	}
	if own := r.lsdb[1]; len(own.Links) != ifaces || len(own.Stubs) != 1+ifaces {
		t.Fatalf("own LSA has %d links and %d stubs", len(own.Links), len(own.Stubs))
	}
}

type countTransport struct{ n *int }

func (c countTransport) SendRouting(int, []byte) { *c.n++ }

func TestIdleSPFZeroAlloc(t *testing.T) {
	r, _, _, _, _ := steadyRouter(t)
	table := fib.New()
	rib := fea.NewRIB(table)
	installs := 0
	rib.OnInstall(func(string, int) { installs++ })
	r.OnRoutes(func(rs []fib.Route) { rib.SetRoutes("ospf", fea.DistOSPF, rs) })
	dst := netip.MustParseAddr("10.0.0.3")
	wantZeroAllocs(t, "SPF on an unchanged LSDB -> RIB -> FIB -> lookup", func() {
		r.runSPF()
		if rt, ok := table.Lookup(dst); !ok || rt.Metric != 12 {
			t.Fatalf("lookup = %v, %v", rt, ok)
		}
	})
	if installs != 501 || r.SPFRuns < 501 {
		t.Fatalf("an idle SPF must still count and report: %d installs, %d runs", installs, r.SPFRuns)
	}
}

// retainingTransport breaks the lend contract: it keeps the payload it
// was handed instead of copying it.
type retainingTransport struct{ kept [][]byte }

func (r *retainingTransport) SendRouting(_ int, payload []byte) { r.kept = append(r.kept, payload) }

// TestRetainingTransportIsCaught: with send-time poisoning on (as the
// simtest and experiment packages run), what a retaining transport holds
// is not a routing message any more — a receiver rejects every byte of
// it, so the adjacency such a transport carries never forms and the
// regime tests that depend on it fail loudly instead of passing on
// stale-but-plausible bytes.
func TestRetainingTransportIsCaught(t *testing.T) {
	defer PoisonAfterSendForTest(PoisonAfterSendForTest(true))
	loop := sim.NewLoop(1)
	bad := &retainingTransport{}
	a := New(loop, Config{RouterID: 1, Hello: time.Second}, bad)
	if err := a.AddInterface(Interface{Index: 0, Addr: netip.MustParseAddr("10.1.0.1"),
		Prefix: netip.MustParsePrefix("10.1.0.0/30"), Cost: 1}); err != nil {
		t.Fatal(err)
	}
	a.Start()
	loop.Run(3 * time.Second)
	if len(bad.kept) < 3 {
		t.Fatalf("%d messages sent", len(bad.kept))
	}
	b := New(loop, Config{RouterID: 2, Hello: time.Second}, discardTransport{})
	b.AddInterface(Interface{Index: 0, Addr: netip.MustParseAddr("10.1.0.2"),
		Prefix: netip.MustParsePrefix("10.1.0.0/30"), Cost: 1})
	b.Start()
	for i, msg := range bad.kept {
		if err := b.Receive(0, netip.MustParseAddr("10.1.0.1"), msg); err == nil {
			t.Fatalf("retained message %d still parses: % x", i, msg)
		}
	}
	if len(b.Neighbors()) != 0 {
		t.Fatal("an adjacency formed over retained payloads")
	}
	// The same transport, copying as the contract says, works.
	good := MarshalHello(1, Hello{HelloInterval: 1, DeadInterval: 2})
	if err := b.Receive(0, netip.MustParseAddr("10.1.0.1"), good); err != nil || len(b.Neighbors()) != 1 {
		t.Fatalf("control: a copied hello was refused: %v", err)
	}
}
