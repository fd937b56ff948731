package bgp

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"vini/internal/sim"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// duplexPipe reliably delivers messages between two speakers with delay.
type duplexPipe struct {
	loop         *sim.Loop
	delay        time.Duration
	down         bool
	aName, bName string
	a, b         *Speaker
}

type pipeEnd struct {
	p   *duplexPipe
	toB bool
}

func (e *pipeEnd) Send(msg []byte) {
	buf := append([]byte(nil), msg...)
	e.p.loop.Schedule(e.p.delay, func() {
		if e.p.down {
			return
		}
		if e.toB {
			e.p.b.Deliver(e.p.aName, buf)
		} else {
			e.p.a.Deliver(e.p.bName, buf)
		}
	})
}

// connect wires a<->b and returns the pipe for failure injection.
// aName is what b calls a, and vice versa.
func connect(loop *sim.Loop, a, b *Speaker, aName, bName string, aCfg, bCfg PeerConfig, delay time.Duration) *duplexPipe {
	p := &duplexPipe{loop: loop, delay: delay, aName: aName, bName: bName, a: a, b: b}
	aCfg.Name = bName
	bCfg.Name = aName
	a.AddPeer(aCfg, &pipeEnd{p: p, toB: true})
	b.AddPeer(bCfg, &pipeEnd{p: p, toB: false})
	return p
}

func TestSessionEstablishAndAnnounce(t *testing.T) {
	loop := sim.NewLoop(1)
	a := NewSpeaker(loop, Config{ASN: 64600, RouterID: 1, NextHopSelf: ip("198.32.154.1"), HoldTime: 30 * time.Second})
	b := NewSpeaker(loop, Config{ASN: 64601, RouterID: 2, NextHopSelf: ip("198.32.154.2"), HoldTime: 30 * time.Second})
	connect(loop, a, b, "a", "b", PeerConfig{EBGP: true}, PeerConfig{EBGP: true}, 10*time.Millisecond)
	a.Originate(pfx("198.32.154.0/24"), PathAttrs{})
	loop.Run(time.Second)
	if a.peers["b"].state != "Established" || b.peers["a"].state != "Established" {
		t.Fatalf("states: a->b=%s b->a=%s", a.peers["b"].state, b.peers["a"].state)
	}
	rib := b.LocRIB()
	if len(rib) != 1 || rib[0].Prefix != pfx("198.32.154.0/24") {
		t.Fatalf("b rib = %+v", rib)
	}
	if len(rib[0].Attrs.ASPath) != 1 || rib[0].Attrs.ASPath[0] != 64600 {
		t.Fatalf("AS path = %v", rib[0].Attrs.ASPath)
	}
	if rib[0].Attrs.NextHop != ip("198.32.154.1") {
		t.Fatalf("next hop = %v", rib[0].Attrs.NextHop)
	}
}

func TestWithdrawPropagates(t *testing.T) {
	loop := sim.NewLoop(1)
	a := NewSpeaker(loop, Config{ASN: 1, RouterID: 1, HoldTime: 30 * time.Second})
	b := NewSpeaker(loop, Config{ASN: 2, RouterID: 2, HoldTime: 30 * time.Second})
	connect(loop, a, b, "a", "b", PeerConfig{EBGP: true}, PeerConfig{EBGP: true}, time.Millisecond)
	a.Originate(pfx("10.1.0.0/16"), PathAttrs{})
	loop.Run(time.Second)
	if len(b.LocRIB()) != 1 {
		t.Fatal("announce missing")
	}
	a.Withdraw(pfx("10.1.0.0/16"))
	loop.Run(2 * time.Second)
	if len(b.LocRIB()) != 0 {
		t.Fatalf("withdraw not propagated: %+v", b.LocRIB())
	}
}

func TestTransitAndLoopPrevention(t *testing.T) {
	loop := sim.NewLoop(1)
	a := NewSpeaker(loop, Config{ASN: 1, RouterID: 1, HoldTime: 30 * time.Second})
	b := NewSpeaker(loop, Config{ASN: 2, RouterID: 2, HoldTime: 30 * time.Second})
	c := NewSpeaker(loop, Config{ASN: 3, RouterID: 3, HoldTime: 30 * time.Second})
	connect(loop, a, b, "a", "b", PeerConfig{EBGP: true}, PeerConfig{EBGP: true}, time.Millisecond)
	connect(loop, b, c, "b", "c", PeerConfig{EBGP: true}, PeerConfig{EBGP: true}, time.Millisecond)
	connect(loop, c, a, "c", "a", PeerConfig{EBGP: true}, PeerConfig{EBGP: true}, time.Millisecond)
	a.Originate(pfx("10.1.0.0/16"), PathAttrs{})
	loop.Run(2 * time.Second)
	// c hears the route directly from a (path length 1) and via b (2);
	// the decision process must pick the direct path.
	rib := c.LocRIB()
	if len(rib) != 1 {
		t.Fatalf("c rib = %+v", rib)
	}
	if len(rib[0].Attrs.ASPath) != 1 {
		t.Fatalf("c chose path %v, want the direct one", rib[0].Attrs.ASPath)
	}
	// a must not have accepted its own prefix back (loop detection).
	for _, r := range a.LocRIB() {
		if r.From != "" && r.Prefix == pfx("10.1.0.0/16") {
			t.Fatal("a accepted a looped route")
		}
	}
}

func TestLocalPrefOverridesPathLength(t *testing.T) {
	loop := sim.NewLoop(1)
	a := NewSpeaker(loop, Config{ASN: 1, RouterID: 1, HoldTime: 30 * time.Second})
	b := NewSpeaker(loop, Config{ASN: 2, RouterID: 2, HoldTime: 30 * time.Second})
	c := NewSpeaker(loop, Config{ASN: 3, RouterID: 3, HoldTime: 30 * time.Second})
	d := NewSpeaker(loop, Config{ASN: 4, RouterID: 4, HoldTime: 30 * time.Second})
	// d hears 10.1/16 from a directly (short path, default pref) and via
	// b->c (long path) with importPref boosting the c session.
	connect(loop, a, d, "a", "d", PeerConfig{EBGP: true}, PeerConfig{EBGP: true}, time.Millisecond)
	connect(loop, a, b, "a", "b", PeerConfig{EBGP: true}, PeerConfig{EBGP: true}, time.Millisecond)
	connect(loop, b, c, "b", "c", PeerConfig{EBGP: true}, PeerConfig{EBGP: true}, time.Millisecond)
	connect(loop, c, d, "c", "d", PeerConfig{EBGP: true}, PeerConfig{EBGP: true, importPref: 200}, time.Millisecond)
	a.Originate(pfx("10.1.0.0/16"), PathAttrs{})
	loop.Run(2 * time.Second)
	rib := d.LocRIB()
	if len(rib) != 1 {
		t.Fatalf("d rib = %+v", rib)
	}
	if rib[0].From != "c" {
		t.Fatalf("d picked %q, want the high-LocalPref path via c (path %v)",
			rib[0].From, rib[0].Attrs.ASPath)
	}
}

func TestHoldTimerExpiryWithdrawsRoutes(t *testing.T) {
	loop := sim.NewLoop(1)
	a := NewSpeaker(loop, Config{ASN: 1, RouterID: 1, HoldTime: 9 * time.Second})
	b := NewSpeaker(loop, Config{ASN: 2, RouterID: 2, HoldTime: 9 * time.Second})
	pipe := connect(loop, a, b, "a", "b", PeerConfig{EBGP: true}, PeerConfig{EBGP: true}, time.Millisecond)
	a.Originate(pfx("10.1.0.0/16"), PathAttrs{})
	loop.Run(time.Second)
	if len(b.LocRIB()) != 1 {
		t.Fatal("setup failed")
	}
	pipe.down = true
	loop.Run(30 * time.Second)
	if b.peers["a"].state == "Established" {
		t.Fatal("session survived silent peer")
	}
	if len(b.LocRIB()) != 0 {
		t.Fatalf("routes survived session death: %+v", b.LocRIB())
	}
}

func TestExportFilter(t *testing.T) {
	loop := sim.NewLoop(1)
	a := NewSpeaker(loop, Config{ASN: 1, RouterID: 1, HoldTime: 30 * time.Second})
	b := NewSpeaker(loop, Config{ASN: 2, RouterID: 2, HoldTime: 30 * time.Second})
	noExport := func(p netip.Prefix, _ PathAttrs) bool { return p != pfx("10.99.0.0/16") }
	connect(loop, a, b, "a", "b", PeerConfig{EBGP: true, exportFilter: noExport}, PeerConfig{EBGP: true}, time.Millisecond)
	a.Originate(pfx("10.1.0.0/16"), PathAttrs{})
	a.Originate(pfx("10.99.0.0/16"), PathAttrs{})
	loop.Run(time.Second)
	rib := b.LocRIB()
	if len(rib) != 1 || rib[0].Prefix != pfx("10.1.0.0/16") {
		t.Fatalf("filter leaked: %+v", rib)
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(a, b, c, d byte, bits8 uint8, asns []uint32, lp, med uint32) bool {
		if len(asns) > 20 {
			asns = asns[:20]
		}
		u := updateMsg{
			Withdrawn: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c, d}), int(bits8)%33)},
			Attrs: PathAttrs{ASPath: asns, NextHop: ip("192.0.2.1"),
				LocalPref: lp, MED: med},
			NLRI: []netip.Prefix{pfx("10.0.0.0/8")},
		}
		typ, body, err := parseType(marshalUpdate(u))
		if err != nil || typ != msgUpdate {
			return false
		}
		got, err := parseUpdate(body)
		if err != nil {
			return false
		}
		if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
			return false
		}
		if len(got.Attrs.ASPath) != len(asns) {
			return false
		}
		for i := range asns {
			if got.Attrs.ASPath[i] != asns[i] {
				return false
			}
		}
		return got.Attrs.LocalPref == lp && got.Attrs.MED == med &&
			len(got.NLRI) == 1 && got.NLRI[0] == pfx("10.0.0.0/8")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWireFuzzNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		if typ, body, err := parseType(b); err == nil {
			switch typ {
			case msgOpen:
				parseOpen(body)
			case msgUpdate:
				parseUpdate(body)
			case msgNotification:
				parseNotification(body)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// --- multiplexer ---

func TestMuxOwnershipFilter(t *testing.T) {
	loop := sim.NewLoop(1)
	m := NewMux(loop, MuxConfig{ASN: 64600, RouterID: 99, NextHopSelf: ip("198.32.154.1")})
	if err := m.Register("expA", pfx("198.32.0.0/20"), 100, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("expB", pfx("198.32.16.0/20"), 100, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Announce("expA", pfx("198.32.1.0/24"), PathAttrs{}); err != nil {
		t.Fatalf("own block rejected: %v", err)
	}
	if err := m.Announce("expA", pfx("198.32.17.0/24"), PathAttrs{}); err == nil {
		t.Fatal("expA announced expB's space")
	}
	if err := m.Announce("expA", pfx("0.0.0.0/0"), PathAttrs{}); err == nil {
		t.Fatal("default route hijack permitted")
	}
	if m.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", m.Rejected)
	}
	if err := m.Announce("ghost", pfx("198.32.1.0/24"), PathAttrs{}); err == nil {
		t.Fatal("unregistered experiment accepted")
	}
}

func TestMuxRateLimit(t *testing.T) {
	loop := sim.NewLoop(1)
	m := NewMux(loop, MuxConfig{ASN: 64600, RouterID: 99})
	m.Register("flapper", pfx("198.32.0.0/20"), 1, 3) // 1 update/s, burst 3
	okCount := 0
	for i := 0; i < 10; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 32, byte(i), 0}), 24)
		if err := m.Announce("flapper", p, PathAttrs{}); err == nil {
			okCount++
		}
	}
	if okCount != 3 {
		t.Fatalf("burst allowed %d, want 3", okCount)
	}
	if m.RateDropped != 7 {
		t.Fatalf("rate dropped = %d", m.RateDropped)
	}
	// After 2 simulated seconds two more tokens accrue.
	loop.Run(2 * time.Second)
	if err := m.Announce("flapper", pfx("198.32.9.0/24"), PathAttrs{}); err != nil {
		t.Fatalf("token not refilled: %v", err)
	}
}

func TestMuxSharesOneExternalSession(t *testing.T) {
	loop := sim.NewLoop(1)
	m := NewMux(loop, MuxConfig{ASN: 64600, RouterID: 99, NextHopSelf: ip("198.32.154.1"), HoldTime: 30 * time.Second})
	external := NewSpeaker(loop, Config{ASN: 7018, RouterID: 1, NextHopSelf: ip("12.0.0.1"), HoldTime: 30 * time.Second})
	connect(loop, m.Speaker(), external, "vini-mux", "upstream",
		PeerConfig{EBGP: true}, PeerConfig{EBGP: true}, 5*time.Millisecond)
	m.Register("expA", pfx("198.32.0.0/20"), 10, 10)
	m.Register("expB", pfx("198.32.16.0/20"), 10, 10)
	external.Originate(pfx("12.0.0.0/8"), PathAttrs{})
	loop.Run(time.Second)
	if err := m.Announce("expA", pfx("198.32.1.0/24"), PathAttrs{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Announce("expB", pfx("198.32.17.0/24"), PathAttrs{}); err != nil {
		t.Fatal(err)
	}
	loop.Run(2 * time.Second)
	// The upstream sees both experiments' prefixes over ONE session,
	// all with the mux's AS in the path.
	rib := external.LocRIB()
	found := 0
	for _, r := range rib {
		if r.Prefix == pfx("198.32.1.0/24") || r.Prefix == pfx("198.32.17.0/24") {
			found++
			if len(r.Attrs.ASPath) == 0 || r.Attrs.ASPath[0] != 64600 {
				t.Fatalf("bad path %v", r.Attrs.ASPath)
			}
		}
	}
	if found != 2 {
		t.Fatalf("upstream saw %d of 2 experiment prefixes: %+v", found, rib)
	}
	// And both experiments can read the shared external view.
	ext := m.ExternalRoutes()
	if len(ext) != 1 || ext[0].Prefix != pfx("12.0.0.0/8") {
		t.Fatalf("external routes = %+v", ext)
	}
}
