// Real overlay: the same IIAS router — Click graph, FIB, OSPF — running
// over real UDP sockets on loopback. Three nodes form a triangle, real
// hello packets maintain real adjacencies, a packet is forwarded end to
// end, and failing one tunnel inside Click makes live OSPF reroute
// around it. Run several cmd/iiasd processes across machines for the
// distributed version.
package main

import (
	"fmt"
	"net/netip"
	"os"
	"time"

	"vini/internal/overlay"
	"vini/internal/packet"
)

func main() {
	mk := func(name, tap string) *overlay.Node {
		n, err := overlay.NewNode(overlay.Config{
			Name: name, Listen: "127.0.0.1:0",
			TapAddr: netip.MustParseAddr(tap),
			Hello:   300 * time.Millisecond, Dead: 900 * time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		return n
	}
	a := mk("a", "10.99.0.1")
	b := mk("b", "10.99.0.2")
	c := mk("c", "10.99.0.3")
	defer a.Close()
	defer b.Close()
	defer c.Close()

	subnet := byte(9)
	link := func(x, y *overlay.Node, cost uint32) {
		subnet++
		px := netip.AddrFrom4([4]byte{10, 99, subnet, 1})
		py := netip.AddrFrom4([4]byte{10, 99, subnet, 2})
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 99, subnet, 0}), 30)
		must(x.AddPeer(overlay.PeerConfig{Remote: y.LocalAddr(), LocalIf: px, PeerIf: py, Prefix: prefix, Cost: cost}))
		must(y.AddPeer(overlay.PeerConfig{Remote: x.LocalAddr(), LocalIf: py, PeerIf: px, Prefix: prefix, Cost: cost}))
	}
	// Triangle: the a-b direct link is cheap; the detour via c costs more.
	link(a, b, 1)
	link(a, c, 10)
	link(c, b, 10)

	got := make(chan string, 16)
	b.OnDeliver(func(d []byte) {
		var ip packet.IPv4
		seg, err := ip.Parse(d)
		if err != nil {
			return
		}
		var u packet.UDP
		if body, err := u.Parse(seg); err == nil {
			got <- fmt.Sprintf("%q (TTL left %d)", body, ip.TTL)
		}
	})
	for _, n := range []*overlay.Node{a, b, c} {
		must(n.Start())
		fmt.Printf("node %v live on %s\n", n.TapAddr(), n.LocalAddr())
	}

	waitRoute := func(n *overlay.Node, pfx string, what string) {
		deadline := time.Now().Add(20 * time.Second)
		p := netip.MustParsePrefix(pfx)
		for time.Now().Before(deadline) {
			for _, r := range n.Routes() {
				if r.Prefix == p {
					fmt.Printf("%s: %s\n", what, r)
					return
				}
			}
			time.Sleep(100 * time.Millisecond)
		}
		panic("timed out waiting for " + what)
	}
	waitRoute(a, "10.99.0.2/32", "a's route to b (direct, metric 1)")

	// failed collects what went wrong; any entry makes the run exit 1.
	var failed []string
	send := func(tag string) {
		d := packet.BuildUDP(a.TapAddr(), b.TapAddr(), 1000, 2000, 64, []byte(tag))
		a.Send(d)
		select {
		case msg := <-got:
			fmt.Printf("b received %s\n", msg)
		case <-time.After(5 * time.Second):
			fmt.Println("b received nothing within 5s")
			failed = append(failed, "datagram lost "+tag)
		}
	}
	send("over the direct a-b tunnel")

	fmt.Println("failing the a-b tunnel inside Click on both ends...")
	a.FailTunnel(0, true)
	b.FailTunnel(0, true)
	// Wait for OSPF to reroute via c (metric 20).
	deadline := time.Now().Add(20 * time.Second)
	rerouted := false
	for !rerouted && time.Now().Before(deadline) {
		for _, r := range a.Routes() {
			if r.Prefix == netip.MustParsePrefix("10.99.0.2/32") && r.Metric == 20 {
				rerouted = true
				fmt.Printf("a rerouted: %s\n", r)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !rerouted {
		failed = append(failed, "no reroute via c within 20s")
	}
	send("after live reroute via c")
	if len(failed) > 0 {
		fmt.Println("FAILED:", failed)
		os.Exit(1)
	}
	fmt.Println("done: live OSPF rerouted around a failure injected in the data plane")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
