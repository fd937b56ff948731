package vini_test

// Zero-allocation guard for a packet's whole life, not just one Click
// hop: source tool -> kernel stack -> tap0 -> Click -> UDP tunnel -> link
// -> process socket -> scheduler grain -> Click forwarder -> tunnel ->
// link -> socket -> Click -> tap sink -> kernel stack -> measurement
// tool. Once the world is warm (pools filled, queues
// and heaps at their working size), advancing virtual time must not
// allocate — and, for UDP CBR, must not grow the heap either: a
// per-packet sample log appended to for the life of the world is invisible
// to AllocsPerRun (amortised slice doubling rounds to 0 objects) but not
// to the bytes it allocates.

import (
	"net/netip"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/traffic"
)

// lineWorld is the DETER Figure 4 shape on PlanetLab hosts: src, fwdr,
// sink in a line, one slice with a Click forwarder on each, OSPF
// converged. The data-path guard passes slow hellos so the measured
// second sees at most one; the control-path guard passes fast ones.
func lineWorld(t *testing.T, v *core.VINI, hello time.Duration) (src, sink *netem.Node, srcTap, sinkTap netip.Addr) {
	t.Helper()
	prof := netem.PlanetLabProfile()
	names := []string{"src", "fwdr", "sink"}
	nodes := make([]*netem.Node, len(names))
	for i, name := range names {
		n, err := v.AddNode(name, netip.AddrFrom4([4]byte{192, 168, 1, byte(i + 1)}), prof, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		if i > 0 {
			if _, err := v.AddLink(netem.LinkConfig{A: names[i-1], B: name,
				Bandwidth: 100e6, Delay: time.Millisecond, Jitter: 50 * time.Microsecond}); err != nil {
				t.Fatal(err)
			}
		}
	}
	v.ComputeRoutes()
	s, err := v.CreateSlice(core.SliceConfig{Name: "iias", CPUShare: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, err := s.AddVirtualNode(name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(names); i++ {
		if _, err := s.ConnectVirtual(names[i-1], names[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	s.StartOSPF(hello, 4*hello)
	v.Run(25 * time.Second)
	a, _ := s.VirtualNode("src")
	b, _ := s.VirtualNode("sink")
	return nodes[0], nodes[2], a.TapAddr, b.TapAddr
}

func TestWholePathZeroAlloc(t *testing.T) {
	workloads := []struct {
		name string
		// maxBytes, when set, bounds the bytes allocated over five more
		// virtual seconds: long enough that a growing slice must double
		// at least once inside the window whatever its phase.
		maxBytes uint64
		start    func(v *core.VINI, src, sink *netem.Node, srcTap, sinkTap netip.Addr) (delivered func() uint64, stop func(), err error)
	}{
		// OSPF hellos come from the pool and cost nothing; two 8-byte
		// samples per datagram are ~70 KB over the window before the
		// slice's growth factor.
		{"udp_cbr", 16 << 10, func(v *core.VINI, src, sink *netem.Node, srcTap, sinkTap netip.Addr) (func() uint64, func(), error) {
			c, err := traffic.StartUDPCBR(v.Net, src, sink, traffic.UDPCBRConfig{
				RateBps: 10e6, SrcAddr: srcTap, DstAddr: sinkTap})
			return func() uint64 { return uint64(c.Received()) }, c.Stop, err
		}},
		{"tcp", 0, func(v *core.VINI, src, sink *netem.Node, srcTap, sinkTap netip.Addr) (func() uint64, func(), error) {
			c, err := traffic.StartIperfTCP(v.Net, src, sink, traffic.IperfTCPConfig{
				Streams: 4, Window: 64 << 10, SrcAddr: srcTap, DstAddr: sinkTap})
			return func() uint64 { return c.Receivers()[0].Bytes }, c.Stop, err
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := packet.Stats()
			v := core.New(2)
			src, sink, srcTap, sinkTap := lineWorld(t, v, 10*time.Second)
			delivered, stop, err := w.start(v, src, sink, srcTap, sinkTap)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up: fill the packet pool and event free lists,
			// grow every ring, heap and train to its working size.
			v.Run(v.Loop().Now() + 3*time.Second)
			before := delivered()
			step := func() { v.Run(v.Loop().Now() + 10*time.Millisecond) }
			// GC during measurement would drain the sync.Pool and
			// charge the refill to the data path.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			// sync.Pool sheds Puts under the race detector, so there the
			// steps run for the ledger check below and the count is moot.
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 && !raceEnabled {
				t.Errorf("%.0f allocs per 10 ms of virtual time, want 0", allocs)
			}
			if delivered() == before {
				t.Fatal("nothing was delivered during the measured second")
			}
			if w.maxBytes > 0 && !raceEnabled {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				v.Run(v.Loop().Now() + 5*time.Second)
				runtime.ReadMemStats(&m1)
				if got := m1.TotalAlloc - m0.TotalAlloc; got > w.maxBytes {
					t.Errorf("%d bytes allocated in 5 s of virtual time, want <= %d", got, w.maxBytes)
				}
			}
			// Every packet the path took from the pool, warm-up included,
			// is back once the source stops and the line drains.
			stop()
			for i := 0; i < 40 && packet.Stats().Sub(base).InFlight() != 0; i++ {
				v.Run(v.Loop().Now() + 50*time.Millisecond)
			}
			if d := packet.Stats().Sub(base); d.InFlight() != 0 {
				t.Errorf("pool ledger unbalanced after the path drained: %d gets, %d releases", d.Gets, d.Releases)
			}
		})
	}
}

// TestControlPathZeroObjectsPerMessage is the same guard for the control
// plane: on a converged line a routing message costs nothing — its
// packet comes from the pool (on the control ledger, see DESIGN.md
// "Routing-message lifetime"), and neither the encoder, the decoder at
// the far end nor the hello and dead timers it re-arms allocate. With no
// data traffic every packet a link carries is a routing message.
func TestControlPathZeroObjectsPerMessage(t *testing.T) {
	base := packet.Stats()
	v := core.New(2)
	lineWorld(t, v, time.Second)
	// Every timer group's handle slice reaches its working size.
	v.Run(v.Loop().Now() + 30*time.Second)
	msgs := func() (n uint64) {
		for _, l := range v.Net.Links() {
			for dir := 0; dir < 2; dir++ {
				pkts, _, _ := l.Stats(dir)
				n += pkts
			}
		}
		return n
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	sent := msgs()
	runtime.ReadMemStats(&m0)
	v.Run(v.Loop().Now() + 10*time.Second)
	runtime.ReadMemStats(&m1)
	sent = msgs() - sent
	if sent < 40 {
		t.Fatalf("%d routing messages in 10 s of 1 s hellos on 4 interfaces", sent)
	}
	objs := m1.Mallocs - m0.Mallocs
	t.Logf("%d objects for %d routing messages", objs, sent)
	// sync.Pool sheds Puts under the race detector, so there the count
	// is moot and only the ledgers are checked.
	if objs != 0 && !raceEnabled {
		t.Errorf("%d objects for %d routing messages (%.2f each), want 0",
			objs, sent, float64(objs)/float64(sent))
	}
	if d := packet.Stats().Sub(base); d.InFlight() != 0 {
		t.Errorf("pool ledger unbalanced: %d gets, %d releases", d.Gets, d.Releases)
	}
}
