package click

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vini/internal/fib"
	"vini/internal/packet"
	"vini/internal/sim"
)

// sink collects packets pushed into it.
type sink struct {
	base
	got []*packet.Packet
}

func newSink(name string, args []string) (Element, error) {
	return &sink{base: base{name: name}}, nil
}
func (s *sink) Class() string                   { return "TestSink" }
func (s *sink) Push(port int, p *packet.Packet) { s.got = append(s.got, p) }

// capture implements TunnelTransport and TapSink for tests.
type capture struct {
	tunneled []fib.EncapEntry
	packets  []*packet.Packet
	tapped   []*packet.Packet
}

func (c *capture) SendTunnel(e fib.EncapEntry, p *packet.Packet) {
	c.tunneled = append(c.tunneled, e)
	c.packets = append(c.packets, p)
}
func (c *capture) DeliverTap(p *packet.Packet) { c.tapped = append(c.tapped, p) }

func init() { register("TestSink", newSink) }

var (
	src10 = netip.MustParseAddr("10.1.1.2")
	dst10 = netip.MustParseAddr("10.1.2.3")
)

func testCtx() (*Context, *capture, *sim.Loop) {
	loop := sim.NewLoop(1)
	cap := &capture{}
	ctx := &Context{
		Clock:     loop,
		RNG:       loop.RNG(),
		FIB:       fib.New(),
		Encap:     fib.NewEncapTable(),
		Tunnels:   cap,
		Tap:       cap,
		LocalAddr: packet.Flow{Src: netip.MustParseAddr("10.1.1.1")},
	}
	return ctx, cap, loop
}

func mustParse(t *testing.T, ctx *Context, cfg string) *Router {
	t.Helper()
	r, err := ParseConfig(ctx, cfg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := r.Initialize(); err != nil {
		t.Fatalf("initialize: %v", err)
	}
	return r
}

func TestParseDeclarationAndChain(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		// IIAS-style graph
		in :: FromTunnel;
		dup :: DupSuppress;
		out :: TestSink;
		in -> dup -> out;
	`)
	p := packet.New([]byte{1, 2, 3})
	r.Push("in", 0, p)
	s, _ := r.Element("out")
	if len(s.(*sink).got) != 1 {
		t.Fatal("packet did not traverse chain")
	}
	if v, err := r.Handler("dup.drops", ""); err != nil || v != "0" {
		t.Fatalf("drops = %q err=%v", v, err)
	}
}

func TestParseExplicitPorts(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		dec :: DecIPTTL;
		a :: TestSink;
		b :: TestSink;
		dec[0] -> a;
		dec[1] -> [0]b;
	`)
	r.Push("dec", 0, packet.New(packet.BuildUDP(src10, dst10, 1, 2, 64, nil)))
	r.Push("dec", 0, packet.New(packet.BuildUDP(src10, dst10, 1, 2, 1, nil)))
	ea, _ := r.Element("a")
	eb, _ := r.Element("b")
	if len(ea.(*sink).got) != 1 || len(eb.(*sink).got) != 1 {
		t.Fatalf("ports misrouted: a=%d b=%d",
			len(ea.(*sink).got), len(eb.(*sink).got))
	}
}

func TestParseMultiDeclarationAndComments(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		/* two elements
		   at once */
		c1, c2 :: FromTunnel;
		c1 -> c2; // chained
	`)
	if len(r.Elements()) != 2 {
		t.Fatalf("elements = %v", r.Elements())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"x :: NoSuchClass;",
		"x :: Discard; x :: Discard;",       // duplicate
		"x -> y;",                           // undeclared
		"x :: Discard( ;",                   // unbalanced
		"x :: Discard; x[z] -> x;",          // bad port
		"frob grob;",                        // not a statement
		"x :: ToTunnel(-1);",                // bad arg
		"x :: ICMPError();",                 // missing type and code
		"x :: IPNAPT(zz);",                  // bad address
		"x :: LinkFail(DROP_PROB 0.5 0.5);", // wrong argument count
	}
	for _, c := range cases {
		ctx, _, _ := testCtx()
		if _, err := ParseConfig(ctx, c); err == nil {
			t.Errorf("config %q parsed without error", c)
		}
	}
}

func TestSplitArgs(t *testing.T) {
	args, err := splitArgs(`a, b(c, d), "e, f", g`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b(c, d)", `"e, f"`, "g"}
	if len(args) != len(want) {
		t.Fatalf("args = %q", args)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Fatalf("args = %q, want %q", args, want)
		}
	}
}

func TestSplitArgsProperty(t *testing.T) {
	// Joining split args with "," and re-splitting is stable.
	f := func(parts []string) bool {
		var clean []string
		for _, p := range parts {
			p = strings.Map(func(r rune) rune {
				switch r {
				case ',', '(', ')', '"':
					return -1
				}
				return r
			}, p)
			p = strings.TrimSpace(p)
			if p != "" {
				clean = append(clean, p)
			}
		}
		joined := strings.Join(clean, ", ")
		got, err := splitArgs(joined)
		if err != nil {
			return false
		}
		if len(got) != len(clean) {
			return false
		}
		for i := range clean {
			if got[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckIPHeader(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		chk :: CheckIPHeader;
		good :: TestSink; bad :: TestSink;
		chk[0] -> good; chk[1] -> bad;
	`)
	ok := packet.BuildUDP(src10, dst10, 1, 2, 64, nil)
	r.Push("chk", 0, packet.New(ok))
	corrupt := append([]byte(nil), ok...)
	corrupt[4] ^= 0xff
	r.Push("chk", 0, packet.New(corrupt))
	g, _ := r.Element("good")
	b, _ := r.Element("bad")
	if len(g.(*sink).got) != 1 || len(b.(*sink).got) != 1 {
		t.Fatal("header check misrouted")
	}
	if v, _ := r.Handler("chk.drops", ""); v != "1" {
		t.Fatalf("drops = %s", v)
	}
}

func TestDecIPTTLExpiry(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		dec :: DecIPTTL;
		fwd :: TestSink; exp :: TestSink;
		dec[0] -> fwd; dec[1] -> exp;
	`)
	r.Push("dec", 0, packet.New(packet.BuildUDP(src10, dst10, 1, 2, 64, nil)))
	r.Push("dec", 0, packet.New(packet.BuildUDP(src10, dst10, 1, 2, 1, nil)))
	f, _ := r.Element("fwd")
	e, _ := r.Element("exp")
	if len(f.(*sink).got) != 1 || len(e.(*sink).got) != 1 {
		t.Fatal("TTL handling misrouted")
	}
	var ip packet.IPv4
	if _, err := ip.Parse(f.(*sink).got[0].Data); err != nil {
		t.Fatalf("decremented packet has bad checksum: %v", err)
	}
	if ip.TTL != 63 {
		t.Fatalf("TTL = %d, want 63", ip.TTL)
	}
}

func TestLookupRouteAndEncap(t *testing.T) {
	ctx, cap, _ := testCtx()
	nh := netip.MustParseAddr("10.1.1.3")
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.2.0/24"), NextHop: nh, OutPort: 0, Owner: "static"})
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.1.1/32"), OutPort: 1, Owner: "connected"})
	ctx.Encap.Set(fib.EncapEntry{NextHop: nh, Remote: netip.MustParseAddr("198.32.154.250"), Port: 33000, Tunnel: 1})
	r := mustParse(t, ctx, `
		rt :: LookupIPRoute(NOROUTE 2);
		encap :: EncapTunnel;
		tap :: ToTap;
		unreach :: TestSink;
		rt[0] -> encap;
		rt[1] -> tap;
		rt[2] -> unreach;
	`)
	// Forwarded packet goes to the tunnel transport.
	r.Push("rt", 0, packet.New(packet.BuildUDP(src10, dst10, 1, 2, 64, nil)))
	if len(cap.tunneled) != 1 || cap.tunneled[0].Remote != netip.MustParseAddr("198.32.154.250") {
		t.Fatalf("tunneled = %+v", cap.tunneled)
	}
	// Local packet goes to tap.
	r.Push("rt", 0, packet.New(packet.BuildUDP(src10, netip.MustParseAddr("10.1.1.1"), 1, 2, 64, nil)))
	if len(cap.tapped) != 1 {
		t.Fatal("local packet not delivered to tap")
	}
	// Unroutable packet exits the NOROUTE port.
	r.Push("rt", 0, packet.New(packet.BuildUDP(src10, netip.MustParseAddr("203.0.113.9"), 1, 2, 64, nil)))
	u, _ := r.Element("unreach")
	if len(u.(*sink).got) != 1 {
		t.Fatal("unroutable packet lost")
	}
	if v, _ := r.Handler("rt.noroute", ""); v != "1" {
		t.Fatalf("noroute counter = %s", v)
	}
}

func TestLinkFailHandlerAndDrop(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		fail :: LinkFail;
		out :: TestSink;
		fail -> out;
	`)
	r.Push("fail", 0, packet.New([]byte{1}))
	if _, err := r.Handler("fail.active", "true"); err != nil {
		t.Fatal(err)
	}
	r.Push("fail", 0, packet.New([]byte{2}))
	r.Push("fail", 0, packet.New([]byte{3}))
	if _, err := r.Handler("fail.active", "false"); err != nil {
		t.Fatal(err)
	}
	r.Push("fail", 0, packet.New([]byte{4}))
	o, _ := r.Element("out")
	if len(o.(*sink).got) != 2 {
		t.Fatalf("passed = %d, want 2", len(o.(*sink).got))
	}
	if v, _ := r.Handler("fail.drops", ""); v != "2" {
		t.Fatalf("drops = %s", v)
	}
}

func TestLinkFailDropProb(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		fail :: LinkFail(DROP_PROB 0.5);
		out :: TestSink;
		fail -> out;
	`)
	for i := 0; i < 2000; i++ {
		r.Push("fail", 0, packet.New([]byte{1}))
	}
	o, _ := r.Element("out")
	got := len(o.(*sink).got)
	if got < 850 || got > 1150 {
		t.Fatalf("passed %d of 2000 at p=0.5", got)
	}
}

func TestBandwidthShaper(t *testing.T) {
	ctx, _, loop := testCtx()
	// 8000 bits/s with 100-byte packets -> one packet per 100 ms.
	r := mustParse(t, ctx, `
		sh :: BandwidthShaper(8000, 10);
		out :: TestSink;
		sh -> out;
	`)
	var arrivals []time.Duration
	o, _ := r.Element("out")
	for i := 0; i < 3; i++ {
		r.Push("sh", 0, packet.New(make([]byte, 100)))
	}
	loop.RunAll()
	for range o.(*sink).got {
		arrivals = append(arrivals, 0)
	}
	if len(arrivals) != 3 {
		t.Fatalf("delivered = %d, want 3", len(arrivals))
	}
	// First packet leaves immediately; full drain takes 2 tx times.
	if loop.Now() != 300*time.Millisecond {
		t.Fatalf("drain finished at %v, want 300ms", loop.Now())
	}
}

func TestIPNAPTElement(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		napt :: IPNAPT(198.32.154.226);
		out :: TestSink; in :: TestSink;
		napt[0] -> out;
		napt[1] -> [0]in;
	`)
	ext := netip.MustParseAddr("64.236.16.20")
	r.Push("napt", 0, packet.New(packet.BuildUDP(src10, ext, 5555, 80, 62, []byte("GET"))))
	o, _ := r.Element("out")
	if len(o.(*sink).got) != 1 {
		t.Fatal("outbound not translated")
	}
	f, _ := packet.FlowOf(o.(*sink).got[0].Data)
	if f.Src != netip.MustParseAddr("198.32.154.226") {
		t.Fatalf("source = %v", f.Src)
	}
	// Return path.
	ret := packet.BuildUDP(ext, netip.MustParseAddr("198.32.154.226"), 80, f.SrcPort, 60, []byte("OK"))
	r.Push("napt", 1, packet.New(ret))
	i, _ := r.Element("in")
	if len(i.(*sink).got) != 1 {
		t.Fatal("inbound not translated")
	}
	bf, _ := packet.FlowOf(i.(*sink).got[0].Data)
	if bf.Dst != src10 || bf.DstPort != 5555 {
		t.Fatalf("restored = %v", bf)
	}
	// Unsolicited inbound is dropped.
	r.Push("napt", 1, packet.New(packet.BuildUDP(ext, netip.MustParseAddr("198.32.154.226"), 80, 9999, 60, nil)))
	if len(i.(*sink).got) != 1 {
		t.Fatal("unsolicited inbound passed")
	}
}

func TestICMPErrorElement(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		err :: ICMPError(11, 0);
		out :: TestSink;
		err -> out;
	`)
	r.Push("err", 0, packet.New(packet.BuildUDP(src10, dst10, 1, 2, 1, nil)))
	o, _ := r.Element("out")
	if len(o.(*sink).got) != 1 {
		t.Fatal("no ICMP error generated")
	}
	var ip packet.IPv4
	payload, err := ip.Parse(o.(*sink).got[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if ip.Dst != src10 || ip.Src != netip.MustParseAddr("10.1.1.1") {
		t.Fatalf("error addressed wrong: %v -> %v", ip.Src, ip.Dst)
	}
	var ic packet.ICMP
	if _, err := ic.Parse(payload); err != nil || ic.Type != packet.ICMPTimeExceeded {
		t.Fatalf("icmp = %+v err=%v", ic, err)
	}
}

func TestHandlersErrors(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `c :: Discard;`)
	if _, err := r.Handler("nosuch.count", ""); err == nil {
		t.Fatal("unknown element accepted")
	}
	if _, err := r.Handler("c.nosuch", ""); err == nil {
		t.Fatal("unknown handler accepted")
	}
	if _, err := r.Handler("plainname", ""); err == nil {
		t.Fatal("malformed path accepted")
	}
}

func TestInitializeFailsWithoutResources(t *testing.T) {
	r := newRouter(&Context{})
	if err := r.Declare("rt", "LookupIPRoute"); err != nil {
		t.Fatal(err)
	}
	if err := r.Initialize(); err == nil {
		t.Fatal("LookupIPRoute initialized without FIB")
	}
}

func TestRouterFlushReleasesBufferedPackets(t *testing.T) {
	ctx, _, _ := testCtx()
	base := packet.Stats()
	r := mustParse(t, ctx, `
		sh :: BandwidthShaper(1000, 10);
		out :: TestSink;
		sh -> out;
	`)
	// Fill the shaper's backlog: the 1 kbit/s rate keeps all but the first
	// packet buffered.
	for i := 0; i < 4; i++ {
		ps := packet.Get()
		ps.SetData([]byte{1, 2, 3, 4})
		r.Push("sh", 0, ps)
	}
	if n := r.Flush(); n != 3 {
		t.Fatalf("Flush released %d, want 3", n)
	}
	if n := r.Flush(); n != 0 {
		t.Fatalf("second Flush released %d, want 0", n)
	}
	// Only the packets handed to the sink remain outstanding.
	out, _ := r.Element("out")
	for _, p := range out.(*sink).got {
		p.Release()
	}
	if f := packet.Stats().Sub(base).InFlight(); f != 0 {
		t.Fatalf("pool ledger unbalanced after Flush: %d in flight", f)
	}
}
