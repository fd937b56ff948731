package core

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/bgp"
	"vini/internal/iias"
	"vini/internal/topology"
)

// wireSpeakers joins two BGP speakers with a reliable delayed pipe on
// the VINI event loop (the TCP session of a real deployment).
func wireSpeakers(v *VINI, a, b *bgp.Speaker, aName, bName string) {
	mk := func(dst *bgp.Speaker, from string) bgp.Conn {
		return connFn(func(msg []byte) {
			buf := append([]byte(nil), msg...)
			v.Loop().Schedule(5*time.Millisecond, func() { dst.Deliver(from, buf) })
		})
	}
	a.AddPeer(bgp.PeerConfig{Name: bName, EBGP: true}, mk(b, aName))
	b.AddPeer(bgp.PeerConfig{Name: aName, EBGP: true}, mk(a, bName))
}

type connFn func([]byte)

func (f connFn) Send(msg []byte) { f(msg) }

func TestConnectBGPDistributesExternalRoutes(t *testing.T) {
	v := buildAbilene(t, 41)
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	ny, _ := s.VirtualNode(topology.NewYork)
	if err := ny.EnableEgress(); err != nil {
		t.Fatal(err)
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)

	// The mux holds the single adjacency with the upstream provider.
	mux := bgp.NewMux(v.Loop(), bgp.MuxConfig{ASN: 64600, RouterID: 9,
		NextHopSelf: ny.Phys().Addr(), HoldTime: 30 * time.Second})
	upstream := bgp.NewSpeaker(v.Loop(), bgp.Config{ASN: 7018, RouterID: 1,
		NextHopSelf: netip.MustParseAddr("12.0.0.1"), HoldTime: 30 * time.Second})
	wireSpeakers(v, mux.Speaker(), upstream, "vini-mux", "upstream")
	if err := s.ConnectBGP(mux, topology.NewYork,
		netip.MustParsePrefix("198.32.0.0/20"), 10, 10); err != nil {
		t.Fatal(err)
	}
	upstream.Originate(netip.MustParsePrefix("12.0.0.0/8"), bgp.PathAttrs{})
	v.Run(v.Loop().Now() + 10*time.Second)

	// The upstream learned the slice's prefix over the one session.
	found := false
	for _, r := range upstream.LocRIB() {
		if r.Prefix == netip.MustParsePrefix("198.32.0.0/20") {
			found = true
			if len(r.Attrs.ASPath) == 0 || r.Attrs.ASPath[0] != 64600 {
				t.Fatalf("AS path = %v", r.Attrs.ASPath)
			}
		}
	}
	if !found {
		t.Fatalf("slice prefix not announced upstream: %+v", upstream.LocRIB())
	}

	ext := netip.MustParseAddr("12.9.9.9")
	// At the egress, the external route exits through NAT.
	r, ok := ny.FIB.Lookup(ext)
	if !ok || r.Proto != "bgp" || r.OutPort != iias.PortNAPT {
		t.Fatalf("egress external route = %+v ok=%v", r, ok)
	}
	// At Seattle, the BGP route is recursively resolved: its forwarding
	// state equals the IGP route toward the egress tap address.
	sea, _ := s.VirtualNode(topology.Seattle)
	rExt, ok := sea.FIB.Lookup(ext)
	if !ok || rExt.Proto != "bgp" {
		t.Fatalf("seattle external route = %+v ok=%v", rExt, ok)
	}
	rIGP, ok := sea.FIB.Lookup(ny.TapAddr)
	if !ok {
		t.Fatal("seattle has no IGP route to the egress")
	}
	if rExt.NextHop != rIGP.NextHop || rExt.OutPort != rIGP.OutPort {
		t.Fatalf("BGP route not resolved via IGP: bgp=%+v igp=%+v", rExt, rIGP)
	}

	// Recursive re-resolution: fail Seattle's current first link toward
	// the egress; after the IGP reconverges, the BGP route follows.
	oldNH := rExt.NextHop
	// Find the neighbor whose interface address is the IGP next hop.
	var failLink *VirtualLink
	for _, vl := range s.vlinks {
		if (vl.A == sea && vl.B.hasIfaceAddr(oldNH)) || (vl.B == sea && vl.A.hasIfaceAddr(oldNH)) {
			failLink = vl
		}
	}
	if failLink == nil {
		t.Fatalf("could not find virtual link for next hop %v", oldNH)
	}
	failLink.SetFailed(true)
	v.Run(v.Loop().Now() + 30*time.Second)
	rExt2, ok := sea.FIB.Lookup(ext)
	if !ok {
		t.Fatal("external route lost after IGP failover")
	}
	if rExt2.NextHop == oldNH {
		t.Fatalf("BGP route still via failed next hop %v", oldNH)
	}
	rIGP2, _ := sea.FIB.Lookup(ny.TapAddr)
	if rExt2.NextHop != rIGP2.NextHop {
		t.Fatalf("re-resolution mismatch: bgp=%+v igp=%+v", rExt2, rIGP2)
	}

	// Withdrawal: the upstream withdraws; the overlay loses the route
	// (the egress default route may still cover it via static 0/0, so
	// check the /8 specifically is gone from the RIB's bgp set).
	upstream.Withdraw(netip.MustParsePrefix("12.0.0.0/8"))
	v.Run(v.Loop().Now() + 10*time.Second)
	if r, ok := sea.FIB.Lookup(ext); ok && r.Proto == "bgp" && r.Prefix == netip.MustParsePrefix("12.0.0.0/8") {
		t.Fatalf("withdrawn external route survives: %+v", r)
	}
}

// hasIfaceAddr reports whether the node owns the interface address.
func (vn *VirtualNode) hasIfaceAddr(a netip.Addr) bool {
	for _, ifc := range vn.Interfaces() {
		if ifc.Addr == a {
			return true
		}
	}
	return false
}

func TestConnectBGPValidation(t *testing.T) {
	v := buildAbilene(t, 42)
	s := abileneSlice(t, v, SliceConfig{Name: "iias"})
	mux := bgp.NewMux(v.Loop(), bgp.MuxConfig{ASN: 64600, RouterID: 9})
	if err := s.ConnectBGP(mux, "atlantis", netip.MustParsePrefix("198.32.0.0/20"), 1, 1); err == nil {
		t.Fatal("unknown egress accepted")
	}
	// Announcing outside the registered block fails at the mux.
	if err := s.ConnectBGP(mux, topology.NewYork, netip.MustParsePrefix("198.32.0.0/20"), 1, 1); err != nil {
		t.Fatal(err)
	}
	// A second attachment of the same slice is rejected by the mux.
	if err := s.ConnectBGP(mux, topology.NewYork, netip.MustParsePrefix("198.32.16.0/20"), 1, 1); err == nil {
		t.Fatal("double registration accepted")
	}
}
