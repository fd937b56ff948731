// Opt-in: the paper's Figure 2 "life of a packet". An end host connects
// an OpenVPN-style client to an IIAS ingress node; its web request rides
// the overlay across Abilene to the egress node, leaves through NAT to a
// server that never heard of VINI, and the response returns through the
// overlay to the client. Element-level trace events from the transit
// Click processes are printed along the way.
package main

import (
	"fmt"
	"net/netip"
	"time"

	"vini"
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/topology"
)

func main() {
	v, err := vini.BuildAbilene(7, vini.PlanetLabProfile())
	if err != nil {
		panic(err)
	}
	// An end-host client near Washington D.C. and a web server ("CNN" in
	// the paper's figure) attached beyond New York.
	clientPub := netip.MustParseAddr("128.112.93.81")
	serverPub := netip.MustParseAddr("64.236.16.20")
	mustNode(v, "client", clientPub)
	mustNode(v, "webserver", serverPub)
	mustLink(v, "client", topology.Washington, 5*time.Millisecond)
	mustLink(v, "webserver", topology.NewYork, 2*time.Millisecond)
	v.ComputeRoutes()

	s, err := v.CreateSlice(vini.SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	if err != nil {
		panic(err)
	}
	g := vini.Abilene()
	if err := s.Mirror(g.Nodes(), g.Links(), nil); err != nil {
		panic(err)
	}
	wash, _ := s.VirtualNode(topology.Washington)
	ny, _ := s.VirtualNode(topology.NewYork)

	// New York is the egress: NAT to the real Internet. Washington is
	// the ingress: an OpenVPN-style server for opt-in clients.
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(3 * i)
	}
	clientOverlay := netip.MustParseAddr("10.1.0.87")
	if err := ny.EnableEgress(); err != nil {
		panic(err)
	}
	if err := wash.EnableVPNServer(1194); err != nil {
		panic(err)
	}
	if err := wash.RegisterVPNClient(clientOverlay, key); err != nil {
		panic(err)
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second) // converge

	// Trace the packet through the ingress and egress Click processes.
	for _, vn := range []*vini.VirtualNode{wash, ny} {
		name := vn.Phys().Name()
		vn.Trace = func(el, ev string, p *packet.Packet) {
			if f, ok := packet.FlowOf(p.Data); ok && (f.DstPort == 80 || f.SrcPort == 80) {
				fmt.Printf("  [%s click] %s: %s (%s)\n", name, el, ev, f)
			}
		}
	}

	// The client opts in: capture the server's prefix and the overlay.
	vc, err := vini.NewVPNClient(v, "client", clientOverlay, key,
		netip.AddrPortFrom(wash.Phys().Addr(), 1194),
		[]netip.Prefix{s.Prefix(), netip.PrefixFrom(serverPub, 32)})
	if err != nil {
		panic(err)
	}

	// The web server answers on UDP port 80 (a one-packet HTTP stand-in).
	web, _ := v.Net.Node("webserver")
	web.StackListenUDP(80, func(d []byte) {
		f, _ := packet.FlowOf(d)
		fmt.Printf("  [webserver] request from %v:%d (the egress NAT address)\n", f.Src, f.SrcPort)
		resp := packet.BuildUDP(serverPub, f.Src, 80, f.SrcPort, 64, []byte("HTTP/1.0 200 OK"))
		web.StackSend(resp)
	})

	// The client's browser sends the request; the client node's VPN tun
	// device captures it.
	var response string
	client, _ := v.Net.Node("client")
	client.StackListenUDP(5555, func(d []byte) {
		var ip packet.IPv4
		seg, _ := ip.Parse(d)
		var u packet.UDP
		body, _ := u.Parse(seg)
		response = string(body)
	})
	fmt.Println("life of a packet (Firefox -> CNN in the paper's Figure 2):")
	fmt.Printf("  [client] sends UDP %v:5555 -> %v:80 into the VPN tun device\n", clientOverlay, serverPub)
	req := packet.BuildUDP(clientOverlay, serverPub, 5555, 80, 64, []byte("GET / HTTP/1.0"))
	client.StackSend(req)
	v.Run(v.Loop().Now() + 20*time.Second)
	if response == "" {
		panic("no response returned through the overlay")
	}
	fmt.Printf("  [client] received %q back through the overlay (VPN frames decrypted: %d)\n",
		response, vc.Received)
}

func mustNode(v *vini.VINI, name string, addr netip.Addr) {
	if _, err := v.AddNode(name, addr, netem.DETERProfile(), vini.SchedOptions{}); err != nil {
		panic(err)
	}
}

func mustLink(v *vini.VINI, a, b string, delay time.Duration) {
	if _, err := v.AddLink(vini.LinkConfig{A: a, B: b, Bandwidth: 100e6, Delay: delay}); err != nil {
		panic(err)
	}
}
