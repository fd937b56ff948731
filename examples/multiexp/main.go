// Simultaneous experiments: two slices share the same physical Abilene
// substrate — one runs OSPF, the other RIP — with isolated address
// blocks, ports, and failures, demonstrating the paper's Section 3.4
// requirements. A third part shows the Section 6.1 BGP multiplexer: both
// experiments share one external BGP adjacency, with ownership filtering
// and update rate limiting; and the conclusion's atomic protocol
// switchover runs on a dual-protocol slice.
package main

import (
	"fmt"
	"net/netip"
	"time"

	"vini"
	"vini/internal/bgp"
	"vini/internal/sim"
	"vini/internal/topology"
)

func main() {
	v, err := vini.BuildAbilene(11, vini.PlanetLabProfile())
	if err != nil {
		panic(err)
	}
	mirror := func(name string) *vini.Slice {
		s, err := v.CreateSlice(vini.SliceConfig{Name: name, CPUShare: 0.2, RT: true})
		if err != nil {
			panic(err)
		}
		g := vini.Abilene()
		if err := s.Mirror(g.Nodes(), g.Links(), nil); err != nil {
			panic(err)
		}
		return s
	}

	ospfSlice := mirror("ospf-experiment")
	ripSlice := mirror("rip-experiment")
	ospfSlice.StartOSPF(time.Second, 3*time.Second)
	ripSlice.StartRIP(2 * time.Second)
	v.Run(90 * time.Second)

	show := func(s *vini.Slice, label string) {
		w, _ := s.VirtualNode(topology.Washington)
		sea, _ := s.VirtualNode(topology.Seattle)
		r, ok := w.FIB.Lookup(sea.TapAddr)
		fmt.Printf("%-16s washington->seattle (%v): ", label, sea.TapAddr)
		if ok {
			fmt.Printf("via %v metric %d (%s)\n", r.NextHop, r.Metric, r.Proto)
		} else {
			fmt.Println("no route")
		}
	}
	fmt.Println("two slices share the substrate with disjoint address blocks:")
	fmt.Printf("  %s: %v    %s: %v\n", ospfSlice.Name(), ospfSlice.Prefix(), ripSlice.Name(), ripSlice.Prefix())
	show(ospfSlice, "OSPF slice")
	show(ripSlice, "RIP slice")

	// Fail Denver-KC in the OSPF slice only; the RIP slice is untouched.
	vl, _ := ospfSlice.FindVirtualLink(topology.Denver, topology.KansasCity)
	vl.SetFailed(true)
	v.Run(v.Loop().Now() + 30*time.Second)
	fmt.Println("\nafter failing denver--kansas-city inside the OSPF slice only:")
	show(ospfSlice, "OSPF slice")
	show(ripSlice, "RIP slice")

	// --- BGP multiplexer (Section 6.1) ---
	fmt.Println("\nBGP multiplexer: one external adjacency shared by both experiments")
	loop := v.Loop()
	mux := bgp.NewMux(loop, bgp.MuxConfig{ASN: 64600, RouterID: 99,
		NextHopSelf: netip.MustParseAddr("198.32.154.50"), HoldTime: 30 * time.Second})
	upstream := bgp.NewSpeaker(loop, bgp.Config{ASN: 7018, RouterID: 1,
		NextHopSelf: netip.MustParseAddr("12.0.0.1"), HoldTime: 30 * time.Second})
	wireBGP(loop, mux.Speaker(), upstream)
	must(mux.Register("ospf-experiment", netip.MustParsePrefix("198.32.0.0/20"), 2, 4))
	must(mux.Register("rip-experiment", netip.MustParsePrefix("198.32.16.0/20"), 2, 4))
	upstream.Originate(netip.MustParsePrefix("12.0.0.0/8"), bgp.PathAttrs{})
	v.Run(loop.Now() + 5*time.Second)

	must(mux.Announce("ospf-experiment", netip.MustParsePrefix("198.32.1.0/24"), bgp.PathAttrs{}))
	must(mux.Announce("rip-experiment", netip.MustParsePrefix("198.32.17.0/24"), bgp.PathAttrs{}))
	if err := mux.Announce("rip-experiment", netip.MustParsePrefix("198.32.1.0/24"), bgp.PathAttrs{}); err != nil {
		fmt.Printf("  ownership filter: %v\n", err)
	}
	for i := 0; i < 8; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 32, 2, 0}), 24)
		mux.Announce("ospf-experiment", p, bgp.PathAttrs{})
	}
	fmt.Printf("  rate limiter dropped %d of a flapping experiment's updates\n", mux.RateDropped)
	v.Run(loop.Now() + 5*time.Second)
	fmt.Println("  upstream's view over the single session:")
	for _, r := range upstream.LocRIB() {
		fmt.Printf("    %v via AS path %v\n", r.Prefix, r.Attrs.ASPath)
	}
	fmt.Println("  external routes redistributed to every experiment:")
	for _, r := range mux.ExternalRoutes() {
		fmt.Printf("    %v from %s\n", r.Prefix, r.From)
	}

	// --- Atomic switchover (conclusion) ---
	fmt.Println("\natomic protocol switchover on a dual-protocol slice:")
	dual := mirror("dual-experiment")
	dual.StartOSPF(time.Second, 3*time.Second)
	dual.StartRIP(2 * time.Second)
	v.Run(v.Loop().Now() + 60*time.Second)
	show(dual, "before (OSPF wins)")
	must(dual.SwitchProtocol("rip"))
	show(dual, "after switch to RIP")
	must(dual.SwitchProtocol("ospf"))
	show(dual, "back to OSPF")
}

// wireBGP connects two speakers with an in-memory reliable pipe on the
// simulation loop (standing in for the TCP session).
func wireBGP(loop *sim.Loop, a, b *bgp.Speaker) {
	send := func(deliver func(string, []byte) error, from string) func([]byte) {
		return func(msg []byte) {
			buf := append([]byte(nil), msg...)
			loop.Schedule(5*time.Millisecond, func() { deliver(from, buf) })
		}
	}
	must(a.AddPeer(bgp.PeerConfig{Name: "upstream", EBGP: true}, connFunc(send(b.Deliver, "vini-mux"))))
	must(b.AddPeer(bgp.PeerConfig{Name: "vini-mux", EBGP: true}, connFunc(send(a.Deliver, "upstream"))))
}

type connFunc func(msg []byte)

func (f connFunc) Send(msg []byte) { f(msg) }

func must(err error) {
	if err != nil {
		panic(err)
	}
}
