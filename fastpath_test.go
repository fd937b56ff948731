package vini_test

// Zero-allocation guard for the steady-state IIAS forwarding fast path:
// tunnel-in -> CheckIPHeader -> DecIPTTL -> FIB lookup -> encap table ->
// in-place UDP/IPv4 re-encapsulation -> tunnel-out. With pooled packets,
// version-cached FIB lookups, and headroom header serialization, the whole
// chain must run at 0 allocations per packet.

import (
	"bytes"
	"net/netip"
	"runtime/debug"
	"testing"

	"vini/internal/click"
	"vini/internal/fib"
	"vini/internal/packet"
	"vini/internal/sim"
	"vini/internal/telemetry"
)

// tunnelRelease models the substrate's tunnel transport on the fast path:
// write the outer UDP and IPv4 headers into the packet's headroom exactly
// as Process.SendUDPPacket does, then return the buffer to the pool (the
// wire hand-off of the real stack).
type tunnelRelease struct {
	local netip.Addr
	sent  int
}

func (t *tunnelRelease) SendTunnel(e fib.EncapEntry, p *packet.Packet) {
	packet.EncapUDP(p, t.local, e.Remote, 33000, e.Port)
	packet.EncapIPv4(p, &packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: t.local, Dst: e.Remote})
	t.sent++
	p.Release()
}

type tapDiscard struct{}

func (tapDiscard) DeliverTap(*packet.Packet) {}

func buildFastPath(tb testing.TB) (*click.Router, *tunnelRelease, []byte) {
	tb.Helper()
	loop := sim.NewLoop(1)
	local := netip.MustParseAddr("198.32.154.40")
	tun := &tunnelRelease{local: local}
	ctx := &click.Context{
		Clock: loop, RNG: loop.RNG(),
		FIB:       fib.New(),
		Encap:     fib.NewEncapTable(),
		Tunnels:   tun,
		Tap:       tapDiscard{},
		LocalAddr: packet.Flow{Src: netip.MustParseAddr("10.1.0.1")},
	}
	nh := netip.MustParseAddr("10.1.128.2")
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: nh, OutPort: 0})
	ctx.Encap.Set(fib.EncapEntry{NextHop: nh, Remote: netip.MustParseAddr("198.32.154.41"), Port: 33000})
	r, err := click.ParseConfig(ctx, `
		fromtun :: FromTunnel;
		chk :: CheckIPHeader;
		dec :: DecIPTTL;
		rt :: LookupIPRoute;
		encap :: EncapTunnel;
		fromtun -> chk; chk[0] -> dec; dec[0] -> rt; rt[0] -> encap;
	`)
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Initialize(); err != nil {
		tb.Fatal(err)
	}
	tmpl := packet.BuildUDP(netip.MustParseAddr("10.1.0.9"), netip.MustParseAddr("10.1.0.7"),
		1, 2, 64, make([]byte, 1400))
	return r, tun, tmpl
}

func TestForwardingFastPathZeroAlloc(t *testing.T) {
	r, tun, tmpl := buildFastPath(t)
	forward := func() {
		p := packet.Get()
		copy(p.Extend(len(tmpl)), tmpl)
		r.Push("fromtun", 0, p)
	}
	// Warm up: compile the FIB's stride table, populate the per-element
	// route and encap caches, and grow the pooled buffer once.
	for i := 0; i < 32; i++ {
		forward()
	}
	// GC during measurement would drain the sync.Pool and charge the
	// refill to the forwarding path; disable it for a deterministic count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(200, forward); allocs != 0 {
		t.Fatalf("forwarding fast path: %.1f allocs/packet, want 0", allocs)
	}
	if tun.sent == 0 {
		t.Fatal("no packets reached the tunnel transport")
	}
}

// TestInstrumentedFastPathZeroAlloc guards the telemetry overhead
// budget: the same forwarding chain with per-element counters, the
// packet-trace hook, and a flight recorder attached must still run at 0
// allocations per packet — for ordinary packets (whose only added cost
// is one Paint comparison in the trace hook) and for painted packets
// (whose every element hop lands in the recorder ring).
func TestInstrumentedFastPathZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(1)
	local := netip.MustParseAddr("198.32.154.40")
	tun := &tunnelRelease{local: local}
	tel := telemetry.New(0)
	reg, rec := tel.Reg, tel.Rec
	rec.EnsureDomain(loop.Domain.ID())
	scope := reg.Scope("iias", "fwdr")
	ctx := &click.Context{
		Clock: loop, RNG: loop.RNG(),
		FIB:       fib.New(),
		Encap:     fib.NewEncapTable(),
		Tunnels:   tun,
		Tap:       tapDiscard{},
		LocalAddr: packet.Flow{Src: netip.MustParseAddr("10.1.0.1")},
		Metrics:   scope,
		Trace: func(el, ev string, p *packet.Packet) {
			if p != nil && p.Anno.Paint == telemetry.TracePaint {
				rec.Record(loop.Domain, telemetry.Event{
					Kind: telemetry.EvPacket, Slice: "iias", Node: "fwdr",
					Elem: el, Detail: ev, Value: int64(p.Len()),
				})
			}
		},
	}
	nh := netip.MustParseAddr("10.1.128.2")
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: nh, OutPort: 0})
	ctx.Encap.Set(fib.EncapEntry{NextHop: nh, Remote: netip.MustParseAddr("198.32.154.41"), Port: 33000})
	r, err := click.ParseConfig(ctx, `
		fromtun :: FromTunnel;
		chk :: CheckIPHeader;
		dec :: DecIPTTL;
		rt :: LookupIPRoute;
		encap :: EncapTunnel;
		fromtun -> chk; chk[0] -> dec; dec[0] -> rt; rt[0] -> encap;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Initialize(); err != nil {
		t.Fatal(err)
	}
	tmpl := packet.BuildUDP(netip.MustParseAddr("10.1.0.9"), netip.MustParseAddr("10.1.0.7"),
		1, 2, 64, make([]byte, 1400))
	forward := func(paint int) {
		p := packet.Get()
		copy(p.Extend(len(tmpl)), tmpl)
		p.Anno.Paint = paint
		r.Push("fromtun", 0, p)
	}
	for i := 0; i < 32; i++ {
		forward(0)
		forward(telemetry.TracePaint)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(200, func() { forward(0) }); allocs != 0 {
		t.Fatalf("instrumented fast path (unpainted): %.1f allocs/packet, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { forward(telemetry.TracePaint) }); allocs != 0 {
		t.Fatalf("instrumented fast path (painted): %.1f allocs/packet, want 0", allocs)
	}
	if tun.sent == 0 {
		t.Fatal("no packets reached the tunnel transport")
	}
	// The instrumentation actually observed the traffic.
	if c := reg.FindCounter("iias", "fwdr", "click/encap/sent"); c == nil || c.Value() == 0 {
		t.Fatal("click/encap/sent counter missing or zero")
	}
	hops := telemetry.PacketPath(rec.Events())
	if len(hops) == 0 {
		t.Fatal("painted packets left no trace in the flight recorder")
	}
}

// extRelease models the egress node's hand-off of a post-NAT packet to
// the node's real network stack: count and recycle.
type extRelease struct{ sent int }

func (e *extRelease) SendExternal(p *packet.Packet) {
	e.sent++
	p.Release()
}

// TestNAPTEgressZeroAlloc guards the egress NAPT path: once a flow's
// binding exists, in-place translation (RFC 1624 incremental checksums,
// pooled buffer kept) through IPNAPT -> ToExternal must run at 0
// allocations per packet.
func TestNAPTEgressZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(1)
	ext := &extRelease{}
	ctx := &click.Context{Clock: loop, RNG: loop.RNG(), External: ext}
	r, err := click.ParseConfig(ctx, `
		napt :: IPNAPT(198.32.154.226);
		ext :: ToExternal;
		napt[0] -> ext;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Initialize(); err != nil {
		t.Fatal(err)
	}
	tmpl := packet.BuildUDP(netip.MustParseAddr("10.1.0.9"), netip.MustParseAddr("128.112.139.43"),
		4321, 53, 64, make([]byte, 1400))
	egress := func() {
		p := packet.Get()
		copy(p.Extend(len(tmpl)), tmpl)
		r.Push("napt", 0, p)
	}
	// Warm up: the first packet allocates the flow's binding; later
	// packets of the same flow hit it.
	for i := 0; i < 32; i++ {
		egress()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(200, egress); allocs != 0 {
		t.Fatalf("NAPT egress path: %.1f allocs/packet, want 0", allocs)
	}
	if ext.sent == 0 {
		t.Fatal("no packets reached the external sink")
	}
}

// TestFastPathEncapsulationBytes pins the in-place encapsulation output to
// the allocating reference builders, so the zero-alloc path cannot drift
// from the wire format.
func TestFastPathEncapsulationBytes(t *testing.T) {
	src := netip.MustParseAddr("198.32.154.40")
	dst := netip.MustParseAddr("198.32.154.41")
	payload := []byte("inner datagram bytes")
	want := packet.BuildUDP(src, dst, 33000, 33001, 64, payload)

	p := packet.Get()
	defer p.Release()
	copy(p.Extend(len(payload)), payload)
	packet.EncapUDP(p, src, dst, 33000, 33001)
	packet.EncapIPv4(p, &packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src, Dst: dst})
	if string(p.Data) != string(want) {
		t.Fatalf("in-place encap differs from reference:\n got %x\nwant %x", p.Data, want)
	}
}

// FuzzTCPEncapMatchesMarshal pins the in-place TCP header writer the
// traffic sources use (payload written into a pooled packet, TCP and
// IPv4 headers prepended into headroom) byte-for-byte to the allocating
// reference builder, and checks the result parses back to what went in.
func FuzzTCPEncapMatchesMarshal(f *testing.F) {
	f.Add(uint32(0xc0a80101), uint32(0x0a010002), uint16(6001), uint16(5001),
		uint32(1), uint32(0), uint8(packet.TCPAck), uint16(0xffff), make([]byte, 1448))
	f.Add(uint32(0x0a000001), uint32(0x0a000002), uint16(1), uint16(2),
		uint32(0xfffffff0), uint32(77), uint8(packet.TCPSyn|packet.TCPAck), uint16(16384), []byte(nil))
	f.Add(uint32(1), uint32(2), uint16(0), uint16(0), uint32(0), uint32(0), uint8(0xff), uint16(0), []byte{0xde})
	f.Fuzz(func(t *testing.T, s, d uint32, sport, dport uint16, seq, ack uint32, flags uint8, wnd uint16, payload []byte) {
		if len(payload) > 4000 {
			payload = payload[:4000] // past the pooled buffer: Extend must still grow correctly
		}
		src := netip.AddrFrom4([4]byte{byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)})
		dst := netip.AddrFrom4([4]byte{byte(d >> 24), byte(d >> 16), byte(d >> 8), byte(d)})
		th := packet.TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags, Window: wnd}
		want := packet.BuildTCP(src, dst, th, 64, payload)

		p := packet.Get()
		defer p.Release()
		copy(p.Extend(len(payload)), payload)
		packet.EncapTCP(p, src, dst, &th)
		packet.EncapIPv4(p, &packet.IPv4{TTL: 64, Proto: packet.ProtoTCP, Src: src, Dst: dst})
		if !bytes.Equal(p.Data, want) {
			t.Fatalf("in-place TCP encap differs from reference:\n got %x\nwant %x", p.Data, want)
		}
		var ip packet.IPv4
		seg, err := ip.Parse(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		var got packet.TCP
		body, err := got.Parse(seg)
		if err != nil {
			t.Fatal(err)
		}
		got.Checksum, got.DataOff = 0, 0
		th.Flags &= 0x3f
		if got != th || !bytes.Equal(body, payload) || ip.Src != src || ip.Dst != dst {
			t.Fatalf("round trip: header %+v (want %+v), %d payload bytes (want %d)", got, th, len(body), len(payload))
		}
	})
}
