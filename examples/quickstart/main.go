// Quickstart: build a three-node VINI deployment, embed one IIAS slice,
// run OSPF over the virtual topology, and measure it with ping and
// iperf — the minimal end-to-end tour of the public API.
package main

import (
	"fmt"
	"net/netip"
	"time"

	"vini"
	"vini/internal/traffic"
)

func main() {
	// Physical substrate: three hosts in a line, gigabit links.
	v := vini.New(42)
	for i, name := range []string{"left", "middle", "right"} {
		addr := netip.MustParseAddr(fmt.Sprintf("198.51.100.%d", i+1))
		if _, err := v.AddNode(name, addr, vini.PlanetLabProfile(), vini.SchedOptions{}); err != nil {
			panic(err)
		}
	}
	mustLink(v, "left", "middle", 5*time.Millisecond)
	mustLink(v, "middle", "right", 7*time.Millisecond)
	v.ComputeRoutes()

	// One slice with a CPU reservation and real-time priority (the
	// PL-VINI configuration), mirroring the physical topology.
	s, err := v.CreateSlice(vini.SliceConfig{Name: "quickstart", CPUShare: 0.25, RT: true})
	if err != nil {
		panic(err)
	}
	for _, n := range []string{"left", "middle", "right"} {
		if _, err := s.AddVirtualNode(n); err != nil {
			panic(err)
		}
	}
	if _, err := s.ConnectVirtual("left", "middle", 10); err != nil {
		panic(err)
	}
	if _, err := s.ConnectVirtual("middle", "right", 20); err != nil {
		panic(err)
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(20 * time.Second) // let OSPF converge

	left, _ := s.VirtualNode("left")
	right, _ := s.VirtualNode("right")
	fmt.Println(left.DumpFIB())

	// Ping across the overlay.
	traffic.NewICMPHost(right.Phys())
	h := traffic.NewICMPHost(left.Phys())
	p := h.StartPing(traffic.PingConfig{
		Src: left.TapAddr, Dst: right.TapAddr,
		Interval: 100 * time.Millisecond, Count: 50,
	})
	v.Run(v.Loop().Now() + 10*time.Second)
	fmt.Printf("ping %v -> %v: %s\n", left.TapAddr, right.TapAddr, p)

	// Bulk TCP across the overlay.
	test, err := traffic.StartIperfTCP(v.Net, left.Phys(), right.Phys(), traffic.IperfTCPConfig{
		Streams: 4, Window: 64 << 10,
		SrcAddr: left.TapAddr, DstAddr: right.TapAddr,
	})
	if err != nil {
		panic(err)
	}
	v.Run(v.Loop().Now() + 5*time.Second)
	test.Stop()
	fmt.Printf("iperf: %.1f Mb/s over the overlay\n", test.Mbps())

	// Fail the left-middle virtual link inside Click: the route is
	// withdrawn when the OSPF dead interval expires.
	vl, _ := s.FindVirtualLink("left", "middle")
	vl.SetFailed(true)
	v.Run(v.Loop().Now() + 10*time.Second)
	if _, ok := left.FIB.Lookup(right.TapAddr); !ok {
		fmt.Println("after failure injection: left has no route to right (as expected: no alternate path)")
	}
}

func mustLink(v *vini.VINI, a, b string, delay time.Duration) {
	if _, err := v.AddLink(vini.LinkConfig{A: a, B: b, Bandwidth: 1e9, Delay: delay}); err != nil {
		panic(err)
	}
}
