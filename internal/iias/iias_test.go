package iias

// The Forwarder against fake sinks: what the sinks are the seam for. No
// substrate, no sockets — a sim.Loop for a clock and a counter where the
// tunnel and the tap would be.

import (
	"net/netip"
	"os"
	"reflect"
	"testing"
	"time"

	"vini/internal/click"
	"vini/internal/fib"
	"vini/internal/ospf"
	"vini/internal/packet"
	"vini/internal/sim"
)

// TestMain poisons released packet buffers and sent routing messages, so
// a sink or a demux that kept a lent slice reads 0xDE (DESIGN.md
// "Routing-message lifetime").
func TestMain(m *testing.M) {
	packet.PoisonOnReleaseForTest(true)
	ospf.PoisonAfterSendForTest(true)
	os.Exit(m.Run())
}

// sinks counts what leaves the router and keeps the last tunnel send.
type sinks struct {
	tunnels, taps int
	entry         fib.EncapEntry
	proto         uint8
}

func (s *sinks) SendTunnel(e fib.EncapEntry, p *packet.Packet) {
	var ip packet.IPv4
	if _, err := ip.Parse(p.Data); err == nil {
		s.proto = ip.Proto
	}
	s.tunnels++
	s.entry = e
	p.Release()
}

func (s *sinks) DeliverTap(p *packet.Packet) {
	s.taps++
	p.Release()
}

var tap = netip.MustParseAddr("10.1.0.1")

// plan is interface k of the test plan: subnet 10.1.128.4k/30, we are .1,
// the peer .2, reached at 192.0.2.k:4000+k.
func plan(k int) (Iface, netip.AddrPort) {
	base := byte(4 * k)
	return Iface{
			Addr:     netip.AddrFrom4([4]byte{10, 1, 128, base + 1}),
			PeerAddr: netip.AddrFrom4([4]byte{10, 1, 128, base + 2}),
			Prefix:   netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, 128, base}), 30),
			Cost:     uint32(k + 1),
		},
		netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(k)}), uint16(4000+k))
}

func newForwarder(t *testing.T, ifaces int) (*Forwarder, *sinks, *sim.Loop) {
	t.Helper()
	loop := sim.NewLoop(1)
	out := &sinks{}
	f, err := New(&click.Context{
		Clock: loop, RNG: sim.NewRNG(1), Tunnels: out, Tap: out,
		LocalAddr: packet.Flow{Src: tap},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Initialize(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < ifaces; k++ {
		ifc, remote := plan(k)
		if idx, err := f.AddInterface(ifc, remote); err != nil || idx != k {
			t.Fatalf("AddInterface %d = %d, %v", k, idx, err)
		}
	}
	return f, out, loop
}

// arrive delivers dgram as a pooled packet on tunnel idx.
func arrive(f *Forwarder, idx int, dgram []byte) {
	p := packet.Get()
	copy(p.Extend(len(dgram)), dgram)
	f.Receive(idx, p)
}

// checkLedgers fails t unless every packet taken from the pool since
// base, on the data ledger and on the control ledger, is back.
func checkLedgers(t *testing.T, base packet.PoolStats) {
	t.Helper()
	d := packet.Stats().Sub(base)
	if d.InFlight() != 0 {
		t.Errorf("data ledger unbalanced: %d gets, %d releases", d.Gets, d.Releases)
	}
	if d.ControlInFlight() != 0 {
		t.Errorf("control ledger unbalanced: %d gets, %d releases", d.ControlGets, d.ControlReleases)
	}
}

func TestDataForwardZeroAlloc(t *testing.T) {
	f, out, _ := newForwarder(t, 2)
	ifc1, remote1 := plan(1)
	// In on tunnel 0, out on tunnel 1 by its connected /30.
	dgram := packet.BuildUDP(netip.MustParseAddr("10.1.0.9"), ifc1.PeerAddr, 1, 2, 64, []byte("payload"))
	base := packet.Stats()
	if n := testing.AllocsPerRun(200, func() { arrive(f, 0, dgram) }); n != 0 {
		t.Errorf("fromtun -> encap -> tunnel sink: %v allocs per packet, want 0", n)
	}
	if out.tunnels != 201 || out.taps != 0 {
		t.Fatalf("%d tunnel sends, %d tap deliveries, want 201 and 0", out.tunnels, out.taps)
	}
	if out.entry.Tunnel != 1 || out.entry.Remote != remote1.Addr() || out.entry.Port != remote1.Port() {
		t.Errorf("left on %+v, want tunnel 1 to %v", out.entry, remote1)
	}
	// Our own address goes up the tap.
	arrive(f, 0, packet.BuildUDP(ifc1.PeerAddr, tap, 1, 2, 64, nil))
	if out.taps != 1 {
		t.Errorf("%d tap deliveries for a datagram to the tap address, want 1", out.taps)
	}
	checkLedgers(t, base)
}

// A routing message costs no object: its packet comes from the pool, the
// bound root TestControlPathZeroObjectsPerMessage holds end to end. A
// packet of its own and its buffer would be two objects, a lookup of the
// chain's head by formatted name a third.
func TestRoutingSendZeroObjects(t *testing.T) {
	f, out, _ := newForwarder(t, 2)
	msg := ospf.MarshalHello(7, ospf.Hello{HelloInterval: 1, DeadInterval: 4})
	base := packet.Stats()
	if n := testing.AllocsPerRun(200, func() { f.sendControl(1, packet.ProtoOSPF, msg) }); n != 0 {
		t.Errorf("routing-message send: %v objects, want 0", n)
	}
	// Routing messages are drawn on the control ledger, and the sink's
	// Release credits them back there.
	if d := packet.Stats().Sub(base); d.ControlGets != 201 || d.Gets != 0 {
		t.Errorf("201 sends drew %d control and %d data packets", d.ControlGets, d.Gets)
	}
	checkLedgers(t, base)
	if out.tunnels != 201 || out.entry.Tunnel != 1 || out.proto != packet.ProtoOSPF {
		t.Fatalf("%d sends, last on tunnel %d proto %d; want 201 OSPF sends on tunnel 1", out.tunnels, out.entry.Tunnel, out.proto)
	}
	f.sendControl(0, packet.ProtoUDP, []byte("rip"))
	if out.entry.Tunnel != 0 || out.proto != packet.ProtoUDP {
		t.Errorf("RIP message left on tunnel %d proto %d", out.entry.Tunnel, out.proto)
	}
	f.sendControl(2, packet.ProtoOSPF, msg) // no such interface
	if out.tunnels != 202 {
		t.Errorf("a send on an unknown interface reached the sink")
	}
}

func TestOSPFDemuxZeroAlloc(t *testing.T) {
	f, out, loop := newForwarder(t, 2)
	f.BuildOSPF(time.Second, 4*time.Second, 0).Start()
	ifc0, _ := plan(0)
	hello := ospf.MarshalHello(7, ospf.Hello{HelloInterval: 1, DeadInterval: 4,
		Neighbors: []uint32{ospf.RouterIDFromAddr(tap)}})
	hdr := packet.IPv4{TTL: 1, Proto: packet.ProtoOSPF, Src: ifc0.PeerAddr, Dst: ifc0.Addr}
	dgram := hdr.Marshal(hello)
	arrive(f, 0, dgram) // Init
	arrive(f, 0, dgram) // two-way: Full
	loop.Run(500 * time.Millisecond)
	if nbs := f.OSPF.Neighbors(); len(nbs) != 1 || nbs[0].State != "Full" {
		t.Fatalf("neighbors after two hellos = %+v, want one Full", nbs)
	}
	base, sent := packet.Stats(), out.tunnels
	if n := testing.AllocsPerRun(200, func() { arrive(f, 0, dgram) }); n != 0 {
		t.Errorf("rx demux of an OSPF hello: %v allocs, want 0", n)
	}
	if out.taps != 0 || out.tunnels != sent {
		t.Errorf("a routing message went into the data plane (%d taps, %d new tunnel sends)", out.taps, out.tunnels-sent)
	}
	checkLedgers(t, base)
	// A migration clone never reaches the routing process: DupSuppress
	// retires it in the graph.
	p := packet.Get()
	copy(p.Extend(len(dgram)), dgram)
	p.Anno.MigClone = true
	f.Receive(0, p)
	if v, _ := f.Router.Handler("dup.drops", ""); v != "1" {
		t.Errorf("dup.drops = %s after a stamped routing message, want 1", v)
	}
}

func TestSuspendedSendsNothing(t *testing.T) {
	f, out, loop := newForwarder(t, 2)
	f.SetSuspended(true)
	f.BuildOSPF(time.Second, 4*time.Second, 0).Start()
	f.BuildRIP(time.Second).Start()
	loop.Run(10 * time.Second)
	if out.tunnels != 0 {
		t.Fatalf("a suspended router sent %d messages", out.tunnels)
	}
	f.SetSuspended(false)
	loop.Run(12 * time.Second)
	if out.tunnels == 0 {
		t.Fatal("a resumed router stayed silent")
	}
}

func TestSetTunnelFailedCutsControlAndData(t *testing.T) {
	f, out, _ := newForwarder(t, 2)
	ifc1, _ := plan(1)
	dgram := packet.BuildUDP(netip.MustParseAddr("10.1.0.9"), ifc1.PeerAddr, 1, 2, 64, nil)
	both := func() {
		arrive(f, 0, dgram)
		f.sendControl(1, packet.ProtoOSPF, []byte("hello"))
	}
	f.SetTunnelFailed(1, true)
	both()
	if out.tunnels != 0 {
		t.Fatalf("%d packets crossed a failed tunnel", out.tunnels)
	}
	f.sendControl(0, packet.ProtoOSPF, []byte("hello"))
	if out.tunnels != 1 || out.entry.Tunnel != 0 {
		t.Fatalf("failing tunnel 1 cut tunnel 0")
	}
	f.SetTunnelFailed(1, false)
	both()
	if out.tunnels != 3 {
		t.Fatalf("%d sends after the tunnel healed, want data and control (3 in all)", out.tunnels)
	}
	f.SetTunnelFailed(5, true) // no such interface: ignored
	f.SetTunnelRate(5, 1e6)
	// The shaper holds what the rate lets through later.
	f.SetTunnelRate(1, 8000)
	both()
	both()
	if out.tunnels != 4 {
		t.Fatalf("%d sends through an 8 kb/s shaper at one instant, want 1 more (4)", out.tunnels)
	}
	if n := f.Router.Flush(); n != 3 {
		t.Errorf("flushed %d shaped packets, want 3", n)
	}
}

// What core's buildShadow relies on: replaying Interfaces() in order on a
// fresh Forwarder gives the same indices, encap entries and chain.
func TestReplayedPlanKeepsIndices(t *testing.T) {
	a, _, _ := newForwarder(t, 3)
	b, _, _ := newForwarder(t, 0)
	for _, ifc := range a.Interfaces() {
		e, _ := a.Encap.ByTunnel(ifc.Index)
		idx, err := b.AddInterface(ifc, netip.AddrPortFrom(e.Remote, e.Port))
		if err != nil || idx != ifc.Index {
			t.Fatalf("replayed interface %d got index %d, %v", ifc.Index, idx, err)
		}
	}
	if !reflect.DeepEqual(a.Router.Elements(), b.Router.Elements()) {
		t.Errorf("graphs differ:\n%v\n%v", a.Router.Elements(), b.Router.Elements())
	}
	if !reflect.DeepEqual(a.FIB.Routes(), b.FIB.Routes()) {
		t.Errorf("connected routes differ:\n%v\n%v", a.FIB.Routes(), b.FIB.Routes())
	}
	for i, ifc := range b.Interfaces() {
		want := a.Interfaces()[i]
		if ifc.Index != i || ifc.Addr != want.Addr || ifc.PeerAddr != want.PeerAddr || ifc.Prefix != want.Prefix || ifc.Cost != want.Cost {
			t.Errorf("interface %d = %+v, want %+v", i, ifc, want)
		}
		ea, _ := a.Encap.ByTunnel(i)
		eb, ok := b.Encap.ByTunnel(i)
		if !ok || ea != eb {
			t.Errorf("encap entry %d = %+v, want %+v", i, eb, ea)
		}
	}
	if err := b.RIB().Verify(); err != nil {
		t.Error(err)
	}
	if err := b.Router.Audit(); err != nil {
		t.Error(err)
	}
}
