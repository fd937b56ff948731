package click

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"vini/internal/fib"
	"vini/internal/packet"
)

// TestOutputFanOutPooledOwnership checks the Tee discipline under packet
// pooling: every edge but the last receives a deep clone, the last edge
// receives the original, and no edge's buffer aliases another's.
func TestOutputFanOutPooledOwnership(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `
		c :: FromTunnel;
		s0 :: TestSink; s1 :: TestSink; s2 :: TestSink;
		c[0] -> s0; c[0] -> s1; c[0] -> s2;
	`)
	p := packet.Get()
	copy(p.Extend(4), []byte{1, 2, 3, 4})
	if err := r.Push("c", 0, p); err != nil {
		t.Fatal(err)
	}
	var got []*packet.Packet
	for _, name := range []string{"s0", "s1", "s2"} {
		e, _ := r.Element(name)
		s := e.(*sink)
		if len(s.got) != 1 {
			t.Fatalf("%s received %d packets", name, len(s.got))
		}
		got = append(got, s.got[0])
	}
	if got[2] != p {
		t.Fatal("last edge did not receive the original packet")
	}
	if got[0] == p || got[1] == p {
		t.Fatal("early edge received the original instead of a clone")
	}
	for i, q := range got {
		if !bytes.Equal(q.Data, []byte{1, 2, 3, 4}) {
			t.Fatalf("edge %d data %x", i, q.Data)
		}
	}
	// Clones must not alias: mutating one copy leaves the others intact.
	got[0].Data[0] = 99
	if got[1].Data[0] == 99 || got[2].Data[0] == 99 {
		t.Fatal("fan-out copies alias the same buffer")
	}
	// Each edge owns its packet: all three release without a double-free.
	for _, q := range got {
		q.Release()
	}
}

func TestOutputUnconnectedReleases(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `c :: FromTunnel;`)
	p := packet.Get()
	copy(p.Extend(2), []byte{5, 6})
	if err := r.Push("c", 0, p); err != nil {
		t.Fatal(err)
	}
	if !p.Released() {
		t.Fatal("packet pushed to an unconnected port was not released")
	}
}

func TestOutputReleasedPacketPanics(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `c :: FromTunnel; s :: TestSink; c[0] -> s;`)
	p := packet.Get()
	p.Release()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("pushing a released packet did not panic")
		}
		if msg, ok := v.(string); !ok || !strings.Contains(msg, "released") {
			t.Fatalf("unexpected panic %v", v)
		}
	}()
	r.Push("c", 0, p)
}

// TestHandlerPathParsing covers the element.handler split, including
// element names that themselves contain dots (the separator must be the
// last one, as in Click's /click/<element>/<handler> paths).
func TestHandlerPathParsing(t *testing.T) {
	ctx, _, _ := testCtx()
	r := mustParse(t, ctx, `c0 :: Discard;`)
	r.Push("c0", 0, packetOf([]byte{1}))
	if v, err := r.Handler("c0.count", ""); err != nil || v != "1" {
		t.Fatalf("c0.count = %q, %v", v, err)
	}
	// An element registered under a dotted name resolves via the last dot.
	r.elements["slice0.counter"] = &discard{base: base{name: "slice0.counter"}}
	if v, err := r.Handler("slice0.counter.count", ""); err != nil || v != "0" {
		t.Fatalf("dotted element handler = %q, %v", v, err)
	}
	if _, err := r.Handler("count", ""); err == nil {
		t.Fatal("path without separator accepted")
	}
	if _, err := r.Handler("nosuch.count", ""); err == nil {
		t.Fatal("unknown element accepted")
	}
	if _, err := r.Handler("c0.nosuch", ""); err == nil {
		t.Fatal("unknown handler accepted")
	}
}

// TestLookupRouteCacheInvalidationMidStream flips routes between packets
// of one stream and checks the per-element FIB cache never serves a stale
// next hop across Add, Remove, and Replace.
func TestLookupRouteCacheInvalidationMidStream(t *testing.T) {
	ctx, _, _ := testCtx()
	nhA := netip.MustParseAddr("10.9.9.1")
	nhB := netip.MustParseAddr("10.9.9.2")
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: nhA, OutPort: 0, Owner: "rib"})
	r := mustParse(t, ctx, `rt :: LookupIPRoute; s :: TestSink; rt[0] -> s;`)
	e, _ := r.Element("s")
	s := e.(*sink)
	push := func() *packet.Packet {
		r.Push("rt", 0, packetOf(packet.BuildUDP(src10, dst10, 1, 2, 64, nil)))
		return s.got[len(s.got)-1]
	}
	if q := push(); q.Anno.NextHop != nhA {
		t.Fatalf("initial next hop %v, want %v", q.Anno.NextHop, nhA)
	}
	// A more specific route added mid-stream must win immediately.
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.2.0/24"), NextHop: nhB, OutPort: 0, Owner: "rib"})
	if q := push(); q.Anno.NextHop != nhB {
		t.Fatalf("after add: next hop %v, want %v", q.Anno.NextHop, nhB)
	}
	ctx.FIB.Remove(netip.MustParsePrefix("10.1.2.0/24"))
	if q := push(); q.Anno.NextHop != nhA {
		t.Fatalf("after remove: next hop %v, want %v", q.Anno.NextHop, nhA)
	}
	ctx.FIB.Replace("rib", []fib.Route{
		{Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: nhB, OutPort: 0, Owner: "rib"},
	})
	if q := push(); q.Anno.NextHop != nhB {
		t.Fatalf("after replace: next hop %v, want %v", q.Anno.NextHop, nhB)
	}
}
