// Quickstart: build a three-node VINI deployment, embed one IIAS slice,
// run OSPF over the virtual topology, and measure it with ping and
// iperf — the minimal end-to-end tour of the public API.
package main

import (
	"fmt"
	"net/netip"
	"time"

	"vini"
	"vini/internal/topology"
	"vini/internal/traffic"
)

func main() {
	// Physical substrate: three hosts in a line, gigabit links. CostAB is
	// the OSPF weight of the virtual link that will ride each one.
	nodes := []string{"left", "middle", "right"}
	links := []topology.Link{
		{A: "left", B: "middle", CostAB: 10, Bandwidth: 1e9, Delay: 5 * time.Millisecond},
		{A: "middle", B: "right", CostAB: 20, Bandwidth: 1e9, Delay: 7 * time.Millisecond},
	}
	v := vini.New(42)
	if err := v.AddTopology(nodes, links, vini.PlanetLabProfile(), func(i int, _ string) netip.Addr {
		return netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
	}); err != nil {
		panic(err)
	}

	// One slice with a CPU reservation and real-time priority (the
	// PL-VINI configuration), mirroring the physical topology.
	s, err := v.CreateSlice(vini.SliceConfig{Name: "quickstart", CPUShare: 0.25, RT: true})
	if err != nil {
		panic(err)
	}
	if err := s.Mirror(nodes, links, nil); err != nil {
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
