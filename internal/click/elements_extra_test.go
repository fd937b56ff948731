package click

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"

	"vini/internal/fib"
	"vini/internal/packet"
)

func TestToTunnelPerLinkChain(t *testing.T) {
	ctx, cap, _ := testCtx()
	nh1 := netip.MustParseAddr("10.1.1.3")
	nh2 := netip.MustParseAddr("10.1.1.7")
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.2.0/24"), NextHop: nh1, OutPort: 0})
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.3.0/24"), NextHop: nh2, OutPort: 0})
	ctx.Encap.Set(fib.EncapEntry{NextHop: nh1, Remote: netip.MustParseAddr("198.32.154.1"), Port: 1, Tunnel: 0})
	ctx.Encap.Set(fib.EncapEntry{NextHop: nh2, Remote: netip.MustParseAddr("198.32.154.2"), Port: 1, Tunnel: 1})
	r := mustParse(t, ctx, `
		rt :: LookupIPRoute;
		encap :: EncapTunnel;
		fail0 :: LinkFail;
		fail1 :: LinkFail;
		tun0 :: ToTunnel(0);
		tun1 :: ToTunnel(1);
		rt[0] -> encap;
		encap[0] -> fail0; fail0 -> tun0;
		encap[1] -> fail1; fail1 -> tun1;
	`)
	// Traffic for each next hop leaves on its own chain.
	r.Push("rt", 0, packet.New(packet.BuildUDP(src10, netip.MustParseAddr("10.1.2.9"), 1, 2, 64, nil)))
	r.Push("rt", 0, packet.New(packet.BuildUDP(src10, netip.MustParseAddr("10.1.3.9"), 1, 2, 64, nil)))
	if len(cap.tunneled) != 2 {
		t.Fatalf("tunneled = %d", len(cap.tunneled))
	}
	if cap.tunneled[0].Tunnel != 0 || cap.tunneled[1].Tunnel != 1 {
		t.Fatalf("tunnel routing wrong: %+v", cap.tunneled)
	}
	// Failing one chain stops its traffic only.
	r.Handler("fail0.active", "true")
	r.Push("rt", 0, packet.New(packet.BuildUDP(src10, netip.MustParseAddr("10.1.2.9"), 1, 2, 64, nil)))
	r.Push("rt", 0, packet.New(packet.BuildUDP(src10, netip.MustParseAddr("10.1.3.9"), 1, 2, 64, nil)))
	if len(cap.tunneled) != 3 || cap.tunneled[2].Tunnel != 1 {
		t.Fatalf("failure injection leaked: %+v", cap.tunneled)
	}
	// Misses stay counted.
	r.Push("rt", 0, packet.New(packet.BuildUDP(src10, netip.MustParseAddr("10.9.9.9"), 1, 2, 64, nil)))
	if v, _ := r.Handler("rt.noroute", ""); v != "0" {
		// 10.9.9.9 has no route at all, so it never reaches encap.
		t.Logf("noroute = %s", v)
	}
}

func TestEncapMissCounted(t *testing.T) {
	ctx, cap, _ := testCtx()
	nh := netip.MustParseAddr("10.1.1.3")
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.2.0/24"), NextHop: nh, OutPort: 0})
	// No encap entry for nh.
	r := mustParse(t, ctx, `
		rt :: LookupIPRoute;
		encap :: EncapTunnel;
		rt[0] -> encap;
	`)
	r.Push("rt", 0, packet.New(packet.BuildUDP(src10, netip.MustParseAddr("10.1.2.9"), 1, 2, 64, nil)))
	if len(cap.tunneled) != 0 {
		t.Fatal("miss was sent anyway")
	}
	if v, _ := r.Handler("encap.misses", ""); v != "1" {
		t.Fatalf("misses = %s", v)
	}
}

func TestToExternalAndToVPNElements(t *testing.T) {
	ctx, _, _ := testCtx()
	extGot, vpnGot := 0, 0
	ctx.External = extFunc(func(p *packet.Packet) { extGot++ })
	ctx.VPN = vpnFunc(func(p *packet.Packet) { vpnGot++ })
	r := mustParse(t, ctx, `
		ext :: ToExternal;
		vpn :: ToVPN;
	`)
	r.Push("ext", 0, packet.New([]byte{1}))
	r.Push("vpn", 0, packet.New([]byte{2}))
	if extGot != 1 || vpnGot != 1 {
		t.Fatalf("sinks: ext=%d vpn=%d", extGot, vpnGot)
	}
}

type extFunc func(p *packet.Packet)

func (f extFunc) SendExternal(p *packet.Packet) { f(p) }

type vpnFunc func(p *packet.Packet)

func (f vpnFunc) SendVPN(p *packet.Packet) { f(p) }

func TestSinkElementsRequireContext(t *testing.T) {
	for _, class := range []string{"ToExternal", "ToVPN", "ToTap", "EncapTunnel", "BandwidthShaper"} {
		r := newRouter(&Context{})
		args := []string{}
		if class == "BandwidthShaper" {
			args = []string{"1000"}
		}
		if err := r.Declare("x", class, args...); err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if err := r.Initialize(); err == nil {
			t.Errorf("%s initialized without its context resource", class)
		}
	}
}

func TestConstructorArgErrors(t *testing.T) {
	bad := map[string][]string{
		"ToTunnel":        {"-1"},
		"ICMPError":       {"11"},
		"IPNAPT":          {"not-an-ip"},
		"BandwidthShaper": {"-5"},
		"LinkFail":        {"DROP_PROB 2.0"},
	}
	for class, args := range bad {
		r := newRouter(&Context{})
		if err := r.Declare("x", class, args...); err == nil {
			t.Errorf("%s(%v) accepted", class, args)
		}
	}
}

func TestIPNAPTPortsArg(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		napt :: IPNAPT(198.32.154.226, PORTS 5000 5001);
		out :: TestSink;
		napt[0] -> out;
	`)
	ext := netip.MustParseAddr("64.236.16.20")
	// Only two ports: the third distinct flow fails and is dropped.
	for i := 0; i < 3; i++ {
		r.Push("napt", 0, packet.New(packet.BuildUDP(src10, ext, uint16(6000+i), 80, 62, nil)))
	}
	o, _ := r.Element("out")
	outs := o.(*sink).got
	if len(outs) != 2 {
		t.Fatalf("translated = %d, want 2 (range exhausted)", len(outs))
	}
	for _, p := range outs {
		f, _ := packet.FlowOf(p.Data)
		if f.SrcPort != 5000 && f.SrcPort != 5001 {
			t.Fatalf("allocated port %d outside range", f.SrcPort)
		}
	}
	if v, _ := r.Handler("napt.drops", ""); v != "1" {
		t.Fatalf("drops = %s", v)
	}
	if v, _ := r.Handler("napt.bindings", ""); v != "2" {
		t.Fatalf("bindings = %s", v)
	}
}

func TestDiscardCount(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		in :: FromTunnel;
		d :: Discard;
		in -> d;
	`)
	r.Push("in", 0, packet.New([]byte{1, 2}))
	r.Push("in", 0, packet.New([]byte{3}))
	if v, _ := r.Handler("d.count", ""); v != "2" {
		t.Fatalf("discard count = %s", v)
	}
}

func TestICMPErrorNeverAboutICMPError(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		err :: ICMPError(11, 0);
		out :: TestSink;
		err -> out;
	`)
	// An ICMP time-exceeded about a time-exceeded must be suppressed.
	offending := packet.BuildICMPError(netip.MustParseAddr("10.0.0.9"), packet.ICMPTimeExceeded, 0,
		packet.BuildUDP(src10, dst10, 1, 2, 1, nil))
	r.Push("err", 0, packet.New(offending))
	o, _ := r.Element("out")
	if len(o.(*sink).got) != 0 {
		t.Fatal("generated an ICMP error about an ICMP error")
	}
	// But an echo request still elicits one (RFC allows errors on echo).
	echo := packet.BuildICMPEcho(src10, dst10, false, 1, 1, 1, nil)
	r.Push("err", 0, packet.New(echo))
	if len(o.(*sink).got) != 1 {
		t.Fatal("echo-triggered error suppressed")
	}
}

// TestICMPErrorMatchesBuild holds the in-place error to
// packet.BuildICMPError byte for byte: offenders shorter and longer than
// the quote, one with IP options, an ICMP echo, and pooled offenders
// whose buffers are poisoned the moment the element releases them.
func TestICMPErrorMatchesBuild(t *testing.T) {
	defer packet.PoisonOnReleaseForTest(packet.PoisonOnReleaseForTest(true))
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		err :: ICMPError(3, 1);
		out :: TestSink;
		err -> out;
	`)
	// The UDP datagram again with a 4-byte option (four NOPs) in its
	// IPv4 header: IHL 6, total length and checksum recomputed.
	udp := packet.BuildUDP(src10, dst10, 1, 2, 9, []byte("payload"))
	opts := append(append(append([]byte{}, udp[:20]...), 1, 1, 1, 1), udp[20:]...)
	opts[0] = 4<<4 | 6
	binary.BigEndian.PutUint16(opts[2:4], uint16(len(opts)))
	opts[10], opts[11] = 0, 0
	binary.BigEndian.PutUint16(opts[10:12], packet.Checksum(opts[:24]))
	offenders := map[string][]byte{
		"udp, no payload":        packet.BuildUDP(src10, dst10, 1, 2, 1, nil),
		"shorter than the quote": (&packet.IPv4{TTL: 1, Proto: packet.ProtoUDP, Src: src10, Dst: dst10}).Marshal([]byte{1, 2, 3, 4}),
		"udp, 1400 bytes":        packet.BuildUDP(src10, dst10, 1, 2, 1, make([]byte, 1400)),
		"ip options":             opts,
		"icmp echo":              packet.BuildICMPEcho(src10, dst10, false, 7, 9, 1, []byte("ping")),
		"tcp":                    packet.BuildTCP(src10, dst10, packet.TCP{SrcPort: 5, DstPort: 80, Seq: 1}, 3, []byte("GET /")),
	}
	o, _ := r.Element("out")
	sk := o.(*sink)
	for name, dgram := range offenders {
		want := packet.BuildICMPError(ctx.LocalAddr.Src, 3, 1, dgram)
		if want == nil {
			t.Fatalf("%s: BuildICMPError refused the offender", name)
		}
		for _, pooled := range []bool{false, true} {
			p := packet.New(append([]byte{}, dgram...))
			if pooled {
				p = packet.Get()
				p.Append(dgram)
			}
			p.Anno.Timestamp = 42
			n := len(sk.got)
			r.Push("err", 0, p)
			if len(sk.got) != n+1 {
				t.Fatalf("%s: no error generated", name)
			}
			got := sk.got[n]
			if !bytes.Equal(got.Data, want) {
				t.Errorf("%s (pooled %v):\n got %x\nwant %x", name, pooled, got.Data, want)
			}
			if got.Anno.Timestamp != 42 {
				t.Errorf("%s: timestamp %v, want the offender's", name, got.Anno.Timestamp)
			}
		}
	}
	// Not an IPv4 datagram: nothing to quote, nothing sent.
	n := len(sk.got)
	r.Push("err", 0, packet.New([]byte{0x45, 0}))
	if len(sk.got) != n {
		t.Error("an error was generated about a truncated header")
	}
}

// TestICMPErrorZeroAlloc: the error is written into a pooled packet, so
// generating one costs no object (two Marshal copies used to).
func TestICMPErrorZeroAlloc(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		err :: ICMPError(11, 0);
		d :: Discard;
		err -> d;
	`)
	dgram := packet.BuildUDP(src10, dst10, 1, 2, 1, make([]byte, 100))
	base := packet.Stats()
	push := func() {
		p := packet.Get()
		p.Append(dgram)
		r.Push("err", 0, p)
	}
	if n := testing.AllocsPerRun(200, push); n != 0 {
		t.Errorf("ICMP error: %v objects, want 0", n)
	}
	if v, _ := r.Handler("d.count", ""); v != "201" {
		t.Errorf("d.count = %s, want 201 errors discarded", v)
	}
	if d := packet.Stats().Sub(base); d.InFlight() != 0 {
		t.Errorf("pool ledger unbalanced: %d gets, %d releases", d.Gets, d.Releases)
	}
}

func TestDuplicateElementClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	register("Discard", newDiscard)
}

// TestDupSuppress: marked migration clones die at the element, unmarked
// packets pass, and the active handler (used by the mutation tests to
// break suppression deliberately) lets clones through.
func TestDupSuppress(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		in :: FromTunnel;
		dup :: DupSuppress;
		out :: TestSink;
		in -> dup -> out;
	`)
	clean := packet.Get()
	copy(clean.Extend(3), "abc")
	r.Push("in", 0, clean)
	clone := packet.Get()
	copy(clone.Extend(3), "abc")
	clone.Anno.MigClone = true
	r.Push("in", 0, clone)
	s, _ := r.Element("out")
	if got := len(s.(*sink).got); got != 1 {
		t.Fatalf("delivered %d packets, want 1 (clone must be suppressed)", got)
	}
	if v, err := r.Handler("dup.drops", ""); err != nil || v != "1" {
		t.Fatalf("drops = %q err=%v", v, err)
	}
	if v, err := r.Handler("dup.active", ""); err != nil || v != "true" {
		t.Fatalf("active = %q err=%v", v, err)
	}
	// Break suppression (the mutation-test hook): clones now leak.
	if _, err := r.Handler("dup.active", "false"); err != nil {
		t.Fatalf("set active: %v", err)
	}
	leaked := packet.Get()
	leaked.Anno.MigClone = true
	r.Push("in", 0, leaked)
	if got := len(s.(*sink).got); got != 2 {
		t.Fatalf("delivered %d packets after disabling suppression, want 2", got)
	}
	for _, p := range s.(*sink).got {
		p.Release()
	}
	if _, err := r.Handler("dup.nope", ""); err == nil {
		t.Fatal("unknown handler accepted")
	}
}
